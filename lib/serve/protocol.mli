(** Wire protocol of the compile service: length-prefixed JSON frames
    over a byte stream.

    A frame is a 4-byte big-endian payload length followed by that
    many payload bytes; payloads are JSON documents built with
    {!Rp_obs.Json} (no new dependencies). Requests and responses are
    versioned ({!version}) and decoding is {e total}: a malformed
    frame or document becomes an [Error _] / {!Bad} value for the
    caller to turn into an error response — never an exception, never
    a dead daemon.

    The transport is abstract ({!conn}): the daemon's Unix-domain
    sockets and the in-process loopback socketpairs the tests use
    ({!Mux.loopback}) share the same record, so every protocol and
    daemon path is exercised without touching the network. *)

(** Protocol version spoken by this build: 1. Carried in every
    request and response as ["v"]; a request with a different version
    is answered with a protocol error. *)
val version : int

(** Frames larger than this (16 MiB) are rejected on read and refused
    on write — a malformed length prefix must not make the daemon
    allocate unboundedly. *)
val max_frame : int

(** {1 Transport} *)

(** A bidirectional byte stream. [input buf off len] reads at most
    [len] bytes and returns how many were read, 0 meaning end of
    stream; [output buf off len] writes exactly [len] bytes; [close]
    is idempotent. *)
type conn = {
  input : bytes -> int -> int -> int;
  output : bytes -> int -> int -> unit;
  close : unit -> unit;
}

(** A {!conn} over a connected file descriptor ([Unix.read] /
    [Unix.write] loops; [close] swallows the double-close error). *)
val conn_of_fd : Unix.file_descr -> conn

(** Result of reading one frame: a payload, a clean end of stream
    (EOF on a frame boundary), or a framing violation — EOF inside a
    frame, or a length prefix that is negative or exceeds
    {!max_frame}. After {!Bad} the stream is desynchronised and must
    be closed. *)
type frame = Frame of string | Eof | Bad of string

(** Write one frame. @raise Invalid_argument if the payload exceeds
    {!max_frame}. *)
val write_frame : conn -> string -> unit

val read_frame : conn -> frame

(** {1 Requests} *)

type compile = {
  target : [ `Source of string | `Workload of string ];
      (** inline MiniC source, or the name of a built-in workload
          resolved by the server *)
  options : Rp_core.Pipeline.options;  (** the full pipeline options record *)
  deterministic : bool;  (** zero every clock in the report *)
  deadline_s : float option;
      (** per-request deadline override ([None] = server default;
          [Some 0.] = wait forever).  Not part of [options] and never
          part of the cache key: identical inputs yield identical
          reports regardless of how long the client would wait.
          Optional on the wire, so older clients remain valid; the
          decoder refuses a negative or non-finite value. *)
}

type request = Compile of compile | Ping | Stats | Shutdown

(** {1 Responses} *)

(** Structured error classes, so clients can tell shed load ([Busy])
    and expired deadlines ([Timeout]) from bad input. *)
type error_kind =
  | Bad_input  (** lexer/parser/sema error, unknown workload, trap *)
  | Fuel_exhausted
      (** the interpreter's instruction budget ran out — the program is
          too big for the request's [fuel], not necessarily broken *)
  | Timeout  (** the per-request deadline expired *)
  | Busy  (** max-inflight reached; the request was shed, not queued *)
  | Protocol_error  (** malformed frame, JSON or request document *)
  | Shutting_down  (** the daemon is draining and refuses new work *)
  | Internal  (** unexpected exception; the daemon keeps serving *)

type response =
  | Report of { cached : bool; report : string }
      (** a full pipeline JSON report, byte-for-byte what a one-shot
          [rpromote promote --json -] run would print; [cached] is the
          cache-hit marker *)
  | Error of { kind : error_kind; message : string }
  | Pong
  | Stats_reply of Rp_obs.Json.t  (** a schema-v3 document with a "serve" section *)
  | Shutdown_ack

val error_kind_to_string : error_kind -> string
val error_kind_of_string : string -> error_kind option

(** {1 Codecs} — encode never fails; decode is total. *)

val request_to_json : request -> Rp_obs.Json.t
val request_of_json : Rp_obs.Json.t -> (request, string) result
val response_to_json : response -> Rp_obs.Json.t
val response_of_json : Rp_obs.Json.t -> (response, string) result

(** The canonical minified encoding of an options record — the string
    the cache key digests. [for_key] (default [false]) drops the
    [jobs] and [interp] fields: promotion output is byte-identical for
    every [jobs] value (the PR 2 determinism contract) and for either
    interpreter engine, so neither must split the cache. The register
    budget [regs] stays in the key in both modes — it changes the
    report bytes, so two requests differing only in [regs] must miss
    each other's cache entries. *)
val options_fingerprint : ?for_key:bool -> Rp_core.Pipeline.options -> string

(** {1 Framed send/receive} *)

(** One received message: {!Garbled} covers framing violations {e and}
    payloads that fail to parse or decode; {!End} is a clean end of
    stream. *)
type 'a framed = Msg of 'a | End | Garbled of string

val send_request : conn -> request -> unit
val send_response : conn -> response -> unit
val recv_request : conn -> request framed
val recv_response : conn -> response framed
