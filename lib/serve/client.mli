(** Blocking client for the compile service, used by the [rpromote
    client] subcommand, the bench serve mode and the end-to-end tests.

    A client wraps one {!Protocol.conn} — either a Unix-domain socket
    ({!connect}) or any established connection such as
    {!Mux.loopback} ({!of_conn}) — and exposes one call per request
    kind. Calls are synchronous: send one request, read one response.
    A client value is not thread-safe; give each thread its own. *)

type t

(** Connect to the daemon listening on the Unix-domain socket [path].
    Raises [Unix.Unix_error] if the daemon is not there. *)
val connect : path:string -> t

(** Wrap an established connection (e.g. {!Mux.loopback}). *)
val of_conn : Protocol.conn -> t

val close : t -> unit

(** The transport failed mid-call: end of stream or a garbled reply
    where a response was expected. *)
exception Transport_error of string

(** Request a compile; any server-side failure arrives as
    [Protocol.Error _] rather than an exception. *)
val compile : t -> Protocol.compile -> Protocol.response

(** [true] iff the daemon answered [Pong]. *)
val ping : t -> bool

(** The daemon's stats document (a schema-v3 report with a ["serve"]
    section). *)
val stats : t -> Rp_obs.Json.t

(** Ask the daemon to shut down gracefully; [true] iff acknowledged. *)
val shutdown : t -> bool
