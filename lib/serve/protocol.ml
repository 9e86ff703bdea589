(* Length-prefixed JSON framing.  The decode side is written so that
   no byte sequence a peer can send raises: framing violations and
   undecodable documents come back as values ([Bad] / [Garbled]) and
   the server turns them into error responses.  The encode side is
   plain [Rp_obs.Json] construction — same emitter as the pipeline
   reports, so the protocol adds no dependencies. *)

module J = Rp_obs.Json
module P = Rp_core.Pipeline

let version = 1

let max_frame = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Transport *)

type conn = {
  input : bytes -> int -> int -> int;
  output : bytes -> int -> int -> unit;
  close : unit -> unit;
}

let conn_of_fd fd =
  let closed = ref false in
  {
    input = (fun buf off len -> Unix.read fd buf off len);
    output =
      (fun buf off len ->
        let written = ref 0 in
        while !written < len do
          written := !written + Unix.write fd buf (off + !written) (len - !written)
        done);
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end);
  }

type frame = Frame of string | Eof | Bad of string

(* Read exactly [len] bytes; [`Eof n] reports how many arrived. *)
let read_exact conn buf len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    match conn.input buf !got (len - !got) with
    | 0 -> eof := true
    | n -> got := !got + n
  done;
  if !eof then `Eof !got else `Ok

let write_frame conn payload =
  let len = String.length payload in
  if len > max_frame then
    invalid_arg
      (Printf.sprintf "Protocol.write_frame: %d bytes exceeds max_frame" len);
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  conn.output hdr 0 4;
  if len > 0 then conn.output (Bytes.of_string payload) 0 len

let read_frame conn : frame =
  let hdr = Bytes.create 4 in
  match read_exact conn hdr 4 with
  | `Eof 0 -> Eof
  | `Eof n -> Bad (Printf.sprintf "EOF inside frame header (%d/4 bytes)" n)
  | `Ok -> (
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame then
        Bad (Printf.sprintf "frame length %d out of bounds (max %d)" len max_frame)
      else if len = 0 then Frame ""
      else
        let payload = Bytes.create len in
        match read_exact conn payload len with
        | `Eof n ->
            Bad (Printf.sprintf "EOF inside frame payload (%d/%d bytes)" n len)
        | `Ok -> Frame (Bytes.unsafe_to_string payload))

(* ------------------------------------------------------------------ *)
(* Requests and responses *)

type compile = {
  target : [ `Source of string | `Workload of string ];
  options : P.options;
  deterministic : bool;
  deadline_s : float option;
      (* per-request deadline override; None means the server default.
         Deliberately not part of options: it must never enter the
         cache key (the same inputs produce the same report no matter
         how long the client was willing to wait). *)
}

type request = Compile of compile | Ping | Stats | Shutdown

type error_kind =
  | Bad_input
  | Fuel_exhausted
  | Timeout
  | Busy
  | Protocol_error
  | Shutting_down
  | Internal

type response =
  | Report of { cached : bool; report : string }
  | Error of { kind : error_kind; message : string }
  | Pong
  | Stats_reply of J.t
  | Shutdown_ack

let error_kind_to_string = function
  | Bad_input -> "bad_input"
  | Fuel_exhausted -> "fuel_exhausted"
  | Timeout -> "timeout"
  | Busy -> "busy"
  | Protocol_error -> "protocol_error"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let error_kind_of_string = function
  | "bad_input" -> Some Bad_input
  | "fuel_exhausted" -> Some Fuel_exhausted
  | "timeout" -> Some Timeout
  | "busy" -> Some Busy
  | "protocol_error" -> Some Protocol_error
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Options codec *)

(* The enum codecs live with their types ({!Rp_core.Pipeline},
   {!Rp_ssa.Incremental}); the protocol only re-exports the profile
   pair for its own callers. *)
let profile_to_string = P.profile_source_to_string
let profile_of_string = P.profile_source_of_string

let options_to_json ?(for_key = false) (o : P.options) : J.t =
  let c = o.P.promote in
  let cost = c.Rp_core.Promote.cost in
  J.Obj
    ([
       ("engine", J.Str (Rp_ssa.Incremental.engine_to_string c.Rp_core.Promote.engine));
       ("allow_store_removal", J.Bool c.Rp_core.Promote.allow_store_removal);
       ("min_profit", J.Float cost.Rp_core.Cost_model.min_profit);
       ("insert_dummies", J.Bool c.Rp_core.Promote.insert_dummies);
       ("profile", J.Str (profile_to_string o.P.profile));
       ("fuel", J.Int o.P.fuel);
       ("singleton_deref", J.Bool o.P.singleton_deref);
       ("checkpoints", J.Bool o.P.checkpoints);
       ("trace", J.Bool o.P.trace);
       (* the register budget changes the report bytes, so unlike
          jobs/interp it IS part of the cache key *)
       ( "regs",
         match cost.Rp_core.Cost_model.regs with
         | Some k -> J.Int k
         | None -> J.Null );
       (* scalar replacement rewrites the program before lowering,
          hence the report bytes: part of the key *)
       ("scalrep", J.Bool o.P.scalrep);
     ]
    @
    (* jobs and interp are left out of the cache key on purpose: the
       deterministic report bytes are identical for every jobs value
       and for either interpreter engine *)
    if for_key then []
    else
      [
        ("jobs", J.Int o.P.jobs);
        ("interp", J.Str (P.interp_engine_to_string o.P.interp));
      ])

(* Total decode with typed field accessors: a missing field takes the
   default-options value (forward compatibility), a wrongly-typed one
   is an error, and an unknown one is ignored.

   That includes "spill_order", which older clients still send.  The
   mode it selected (gate each web on the Chaitin spill-count increase
   its admission predicts, on top of the unit-growth gate) is gone: on
   the 11 named workloads and gen60-gen480, at ten budgets from 1 to 16
   with either profile and with or without scalar replacement, it never
   changed a promoted program or a deterministic report.  So a request
   with "spill_order":true is answered with exactly the bytes the same
   request without it gets, under the same cache key. *)
type 'a field = Got of 'a | Missing | Wrong of string

let field obj name conv =
  match J.member obj name with
  | None -> Missing
  | Some v -> (
      match conv v with
      | Some x -> Got x
      | None -> Wrong (Printf.sprintf "field %S has the wrong type" name))

let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e

let take dflt = function
  | Got v -> Ok v
  | Missing -> Ok dflt
  | Wrong m -> Error m

let as_bool = function J.Bool b -> Some b | _ -> None
let as_int = function J.Int i -> Some i | _ -> None
let as_str = function J.Str s -> Some s | _ -> None

let as_float = function
  | J.Float f -> Some f
  | J.Int i -> Some (float_of_int i)
  | _ -> None

let options_of_json (v : J.t) : (P.options, string) result =
  let d = P.default_options in
  let dc = d.P.promote in
  let* engine =
    take dc.Rp_core.Promote.engine
      (field v "engine" (fun j ->
           Option.bind (as_str j) Rp_ssa.Incremental.engine_of_string))
  in
  let* allow_store_removal =
    take dc.Rp_core.Promote.allow_store_removal
      (field v "allow_store_removal" as_bool)
  in
  let* min_profit =
    take dc.Rp_core.Promote.cost.Rp_core.Cost_model.min_profit
      (field v "min_profit" as_float)
  in
  let* regs =
    take dc.Rp_core.Promote.cost.Rp_core.Cost_model.regs
      (field v "regs" (function
        | J.Null -> Some None
        | J.Int k -> Some (Some k)
        | _ -> None))
  in
  let* scalrep = take d.P.scalrep (field v "scalrep" as_bool) in
  let* insert_dummies =
    take dc.Rp_core.Promote.insert_dummies (field v "insert_dummies" as_bool)
  in
  let* profile =
    take d.P.profile
      (field v "profile" (fun j -> Option.bind (as_str j) profile_of_string))
  in
  let* fuel = take d.P.fuel (field v "fuel" as_int) in
  let* singleton_deref =
    take d.P.singleton_deref (field v "singleton_deref" as_bool)
  in
  let* checkpoints = take d.P.checkpoints (field v "checkpoints" as_bool) in
  let* trace = take d.P.trace (field v "trace" as_bool) in
  let* jobs = take d.P.jobs (field v "jobs" as_int) in
  let* interp =
    take d.P.interp
      (field v "interp" (fun j ->
           Option.bind (as_str j) P.interp_engine_of_string))
  in
  if fuel < 0 then Error "field \"fuel\" must be non-negative"
  else if jobs < 1 then Error "field \"jobs\" must be at least 1"
  else if not (Float.is_finite min_profit) then
    Error "field \"min_profit\" must be finite"
  else if (match regs with Some k -> k < 1 | None -> false) then
    Error "field \"regs\" must be at least 1"
  else
    Ok
      {
        P.promote =
          {
            Rp_core.Promote.engine;
            allow_store_removal;
            cost = { Rp_core.Cost_model.min_profit; regs };
            insert_dummies;
          };
        profile;
        fuel;
        singleton_deref;
        checkpoints;
        trace;
        jobs;
        interp;
        scalrep;
      }

let options_fingerprint ?for_key (o : P.options) : string =
  J.to_string ~minify:true (options_to_json ?for_key o)

(* ------------------------------------------------------------------ *)
(* Request codec *)

let request_to_json (r : request) : J.t =
  let base req rest = J.Obj ((("v", J.Int version) :: ("req", J.Str req) :: rest)) in
  match r with
  | Ping -> base "ping" []
  | Stats -> base "stats" []
  | Shutdown -> base "shutdown" []
  | Compile c ->
      base "compile"
        ((match c.target with
         | `Source s -> [ ("source", J.Str s) ]
         | `Workload w -> [ ("workload", J.Str w) ])
        @ [
            ("options", options_to_json c.options);
            ("deterministic", J.Bool c.deterministic);
          ]
        @
        match c.deadline_s with
        | None -> []
        | Some d -> [ ("deadline_s", J.Float d) ])

let check_version v =
  match J.member v "v" with
  | Some (J.Int n) when n = version -> Ok ()
  | Some (J.Int n) ->
      Error (Printf.sprintf "protocol version %d not supported (want %d)" n version)
  | Some _ -> Error "field \"v\" is not an integer"
  | None -> Error "missing protocol version field \"v\""

let request_of_json (v : J.t) : (request, string) result =
  let* () = check_version v in
  match J.member v "req" with
  | Some (J.Str "ping") -> Ok Ping
  | Some (J.Str "stats") -> Ok Stats
  | Some (J.Str "shutdown") -> Ok Shutdown
  | Some (J.Str "compile") -> (
      let* target =
        match (J.member v "source", J.member v "workload") with
        | Some (J.Str s), None -> Ok (`Source s)
        | None, Some (J.Str w) -> Ok (`Workload w)
        | Some _, Some _ -> Error "compile request has both source and workload"
        | Some _, None -> Error "field \"source\" is not a string"
        | None, Some _ -> Error "field \"workload\" is not a string"
        | None, None -> Error "compile request needs source or workload"
      in
      let* options =
        match J.member v "options" with
        | None -> Ok P.default_options
        | Some o -> options_of_json o
      in
      let* deterministic = take false (field v "deterministic" as_bool) in
      match take None (field v "deadline_s" (fun j -> Option.map Option.some (as_float j))) with
      | Error m -> Error m
      | Ok deadline_s ->
          Ok (Compile { target; options; deterministic; deadline_s }))
  | Some (J.Str other) -> Error (Printf.sprintf "unknown request %S" other)
  | Some _ -> Error "field \"req\" is not a string"
  | None -> Error "missing request field \"req\""

(* ------------------------------------------------------------------ *)
(* Response codec *)

let response_to_json (r : response) : J.t =
  let base resp rest = J.Obj (("v", J.Int version) :: ("resp", J.Str resp) :: rest) in
  match r with
  | Pong -> base "pong" []
  | Shutdown_ack -> base "shutdown_ack" []
  | Stats_reply doc -> base "stats" [ ("report", doc) ]
  | Report { cached; report } ->
      (* the report travels as an escaped string, not an embedded tree:
         the client recovers the one-shot document byte-for-byte with
         no float-reprint hazard *)
      base "report" [ ("cached", J.Bool cached); ("report", J.Str report) ]
  | Error { kind; message } ->
      base "error"
        [
          ("kind", J.Str (error_kind_to_string kind));
          ("message", J.Str message);
        ]

let response_of_json (v : J.t) : (response, string) result =
  let* () = check_version v in
  match J.member v "resp" with
  | Some (J.Str "pong") -> Ok Pong
  | Some (J.Str "shutdown_ack") -> Ok Shutdown_ack
  | Some (J.Str "stats") -> (
      match J.member v "report" with
      | Some doc -> Ok (Stats_reply doc)
      | None -> Error "stats response has no report")
  | Some (J.Str "report") -> (
      match (J.member v "cached", J.member v "report") with
      | Some (J.Bool cached), Some (J.Str report) ->
          Ok (Report { cached; report })
      | _ -> Error "malformed report response")
  | Some (J.Str "error") -> (
      match (J.member v "kind", J.member v "message") with
      | Some (J.Str k), Some (J.Str message) -> (
          match error_kind_of_string k with
          | Some kind -> Ok (Error { kind; message })
          | None -> Result.Error (Printf.sprintf "unknown error kind %S" k))
      | _ -> Result.Error "malformed error response")
  | Some (J.Str other) -> Error (Printf.sprintf "unknown response %S" other)
  | Some _ -> Error "field \"resp\" is not a string"
  | None -> Error "missing response field \"resp\""

(* ------------------------------------------------------------------ *)
(* Framed send/receive *)

type 'a framed = Msg of 'a | End | Garbled of string

let send conn to_json v =
  write_frame conn (J.to_string ~minify:true (to_json v))

let recv conn of_json : 'a framed =
  match read_frame conn with
  | Eof -> End
  | Bad m -> Garbled m
  | Frame payload -> (
      match J.parse payload with
      | Error m -> Garbled m
      | Ok doc -> ( match of_json doc with Ok v -> Msg v | Error m -> Garbled m))

let send_request conn r = send conn request_to_json r
let send_response conn r = send conn response_to_json r
let recv_request conn = recv conn request_of_json
let recv_response conn = recv conn response_of_json
