(* The compile service, below the server: Protocol framing and codec
   round trips (QCheck over arbitrary bytes and generated option
   records), and the Cache against a naive assoc-list LRU model. *)

module Proto = Rp_serve.Protocol
module Cache = Rp_serve.Cache
module P = Rp_core.Pipeline
module J = Rp_obs.Json
module G = QCheck.Gen

let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e14e |]) t

(* ------------------------------------------------------------------ *)
(* An in-memory conn: reads consume a fixed input string, writes
   append to a buffer. *)

let conn_of_string (input : string) : Proto.conn * Buffer.t =
  let out = Buffer.create 64 in
  let pos = ref 0 in
  ( {
      Proto.input =
        (fun buf off len ->
          let n = min len (String.length input - !pos) in
          Bytes.blit_string input !pos buf off n;
          pos := !pos + n;
          n);
      output = (fun buf off len -> Buffer.add_subbytes out buf off len);
      close = (fun () -> ());
    },
    out )

let written_by f =
  let conn, out = conn_of_string "" in
  f conn;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Framing *)

let frame_to_string = function
  | Proto.Frame s -> Printf.sprintf "Frame %S" s
  | Proto.Eof -> "Eof"
  | Proto.Bad m -> Printf.sprintf "Bad %S" m

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let wire = written_by (fun c -> Proto.write_frame c payload) in
      let conn, _ = conn_of_string wire in
      (match Proto.read_frame conn with
      | Proto.Frame got -> Alcotest.(check string) "payload" payload got
      | r -> Alcotest.failf "expected Frame, got %s" (frame_to_string r));
      match Proto.read_frame conn with
      | Proto.Eof -> ()
      | r -> Alcotest.failf "expected Eof after frame, got %s" (frame_to_string r))
    [ ""; "x"; "{\"a\":1}"; String.make 70_000 '\xff' ]

let test_frame_oversized_write () =
  match Proto.write_frame (fst (conn_of_string ""))
          (String.make (Proto.max_frame + 1) 'a')
  with
  | () -> Alcotest.fail "oversized write accepted"
  | exception Invalid_argument _ -> ()

let test_frame_oversized_length () =
  (* a header announcing more than max_frame must be rejected before
     any allocation-by-attacker *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Proto.max_frame + 1));
  let conn, _ = conn_of_string (Bytes.to_string hdr ^ "xxxx") in
  match Proto.read_frame conn with
  | Proto.Bad _ -> ()
  | r -> Alcotest.failf "expected Bad, got %s" (frame_to_string r)

let test_frame_negative_length () =
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (-1l);
  let conn, _ = conn_of_string (Bytes.to_string hdr) in
  match Proto.read_frame conn with
  | Proto.Bad _ -> ()
  | r -> Alcotest.failf "expected Bad, got %s" (frame_to_string r)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame round trip (arbitrary bytes)" ~count:300
    QCheck.(string_gen_of_size (G.int_bound 400) G.char)
    (fun payload ->
      let wire = written_by (fun c -> Proto.write_frame c payload) in
      let conn, _ = conn_of_string wire in
      match Proto.read_frame conn with
      | Proto.Frame got -> got = payload && Proto.read_frame conn = Proto.Eof
      | _ -> false)

let prop_frame_truncated =
  (* chopping any strict prefix of a frame yields Bad (inside header or
     payload) or Eof (nothing at all) — never a Frame, never a crash *)
  QCheck.Test.make ~name:"truncated frame never decodes" ~count:300
    QCheck.(
      pair
        (string_gen_of_size (G.int_bound 60) G.char)
        (float_bound_inclusive 1.0))
    (fun (payload, cut) ->
      let wire = written_by (fun c -> Proto.write_frame c payload) in
      let keep = int_of_float (cut *. float_of_int (String.length wire)) in
      let keep = min keep (String.length wire - 1) in
      let conn, _ = conn_of_string (String.sub wire 0 (max keep 0)) in
      match Proto.read_frame conn with
      | Proto.Frame _ -> false
      | Proto.Eof -> keep = 0
      | Proto.Bad _ -> keep > 0)

(* ------------------------------------------------------------------ *)
(* Request/response codecs *)

let gen_options : P.options G.t =
  let open G in
  let* engine = oneofl [ Rp_ssa.Incremental.Cytron; Rp_ssa.Incremental.Sreedhar_gao ] in
  let* allow_store_removal = bool and* insert_dummies = bool in
  let* min_profit =
    oneof [ float_range (-10.0) 10.0; return (-1e308); return 1e18 ]
  in
  let* static = bool in
  let* fuel = int_range 0 100_000_000 in
  let* singleton_deref = bool and* checkpoints = bool and* trace = bool in
  let* jobs = int_range 1 8 in
  let* flat = bool in
  let* regs = opt (int_range 1 64) in
  let* scalrep = bool in
  return
    {
      P.promote =
        {
          Rp_core.Promote.engine;
          allow_store_removal;
          cost = { Rp_core.Cost_model.min_profit; regs };
          insert_dummies;
        };
      profile = (if static then P.Static_estimate else P.Measured);
      fuel;
      singleton_deref;
      checkpoints;
      trace;
      jobs;
      interp = (if flat then P.Flat else P.Tree);
      scalrep;
    }

let gen_request : Proto.request G.t =
  let open G in
  let gen_compile =
    let* options = gen_options in
    let* deterministic = bool in
    let* target =
      oneof
        [
          map (fun s -> `Source s) (string_size (int_bound 200));
          map (fun s -> `Workload s) (oneofl [ "go"; "li"; "compr"; "nope" ]);
        ]
    in
    return (Proto.Compile { Proto.target; options; deterministic; deadline_s = None })
  in
  oneof
    [
      gen_compile;
      return Proto.Ping;
      return Proto.Stats;
      return Proto.Shutdown;
    ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request codec round trip" ~count:300
    (QCheck.make gen_request) (fun req ->
      match Proto.request_of_json (Proto.request_to_json req) with
      | Ok got -> got = req
      | Error _ -> false)

let gen_response : Proto.response G.t =
  let open G in
  oneof
    [
      (let* cached = bool in
       let* report = string_size (int_bound 300) in
       return (Proto.Report { cached; report }));
      (let* kind =
         oneofl
           [
             Proto.Bad_input;
             Proto.Fuel_exhausted;
             Proto.Timeout;
             Proto.Busy;
             Proto.Protocol_error;
             Proto.Shutting_down;
             Proto.Internal;
           ]
       in
       let* message = string_size (int_bound 100) in
       return (Proto.Error { kind; message }));
      return Proto.Pong;
      return (Proto.Stats_reply (J.Obj [ ("x", J.Int 1); ("y", J.Str "z") ]));
      return Proto.Shutdown_ack;
    ]

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response codec round trip" ~count:300
    (QCheck.make gen_response) (fun resp ->
      match Proto.response_of_json (Proto.response_to_json resp) with
      | Ok got -> got = resp
      | Error _ -> false)

let prop_decode_total =
  (* any bytes: decoding yields Garbled/End/Msg, never an exception *)
  QCheck.Test.make ~name:"recv_request total on arbitrary frames" ~count:300
    QCheck.(string_gen_of_size (G.int_bound 200) G.char)
    (fun payload ->
      let wire = written_by (fun c -> Proto.write_frame c payload) in
      let conn, _ = conn_of_string wire in
      match Proto.recv_request conn with
      | Proto.Msg _ | Proto.End | Proto.Garbled _ -> true)

let test_fingerprint_jobs () =
  let o = P.default_options in
  let o2 = { o with P.jobs = o.P.jobs + 3 } in
  Alcotest.(check bool)
    "jobs split the plain fingerprint" true
    (Proto.options_fingerprint o <> Proto.options_fingerprint o2);
  Alcotest.(check string) "jobs dropped from the key fingerprint"
    (Proto.options_fingerprint ~for_key:true o)
    (Proto.options_fingerprint ~for_key:true o2);
  let o3 = { o with P.interp = P.Tree } in
  Alcotest.(check bool)
    "interp splits the plain fingerprint" true
    (Proto.options_fingerprint o <> Proto.options_fingerprint o3);
  Alcotest.(check string) "interp dropped from the key fingerprint"
    (Proto.options_fingerprint ~for_key:true o)
    (Proto.options_fingerprint ~for_key:true o3)

(* The budget lives in the cost model; its wire and cache-key bytes are
   pinned. *)
let test_fingerprint_budget_pinned () =
  let o = Helpers.with_regs (Some 6) P.default_options in
  let key =
    "{\"engine\":\"cytron\",\"allow_store_removal\":true,\"min_profit\":0.0,\
     \"insert_dummies\":true,\"profile\":\"measured\",\"fuel\":50000000,\
     \"singleton_deref\":false,\"checkpoints\":false,\"trace\":false,\
     \"regs\":6,\"scalrep\":false"
  in
  Alcotest.(check string) "budgeted key fingerprint" (key ^ "}")
    (Proto.options_fingerprint ~for_key:true o);
  Alcotest.(check string) "budgeted wire fingerprint"
    (key ^ ",\"jobs\":1,\"interp\":\"flat\"}")
    (Proto.options_fingerprint o);
  let req =
    Proto.Compile
      {
        Proto.target = `Workload "go";
        options = o;
        deterministic = true;
        deadline_s = None;
      }
  in
  Alcotest.(check bool) "budget decodes back into the cost model" true
    (Proto.request_of_json (Proto.request_to_json req) = Ok req)

(* Older clients still send "spill_order"; the decoder ignores it, so
   such a request decodes to the options, and the cache key, of the
   same request without the field. *)
let test_spill_order_field_ignored () =
  let o = Helpers.with_regs (Some 6) P.default_options in
  let req =
    Proto.Compile
      {
        Proto.target = `Workload "go";
        options = o;
        deterministic = true;
        deadline_s = None;
      }
  in
  let with_field b =
    match Proto.request_to_json req with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "options", J.Obj opts ->
                   ("options", J.Obj (opts @ [ ("spill_order", J.Bool b) ]))
               | kv -> kv)
             fields)
    | _ -> assert false
  in
  List.iter
    (fun b ->
      match Proto.request_of_json (with_field b) with
      | Ok (Proto.Compile c) ->
          Alcotest.(check bool)
            (Printf.sprintf "spill_order=%b: same options" b)
            true (c.Proto.options = o);
          Alcotest.(check string)
            (Printf.sprintf "spill_order=%b: same key" b)
            (Proto.options_fingerprint ~for_key:true o)
            (Proto.options_fingerprint ~for_key:true c.Proto.options)
      | Ok _ -> Alcotest.fail "decoded to another request"
      | Error m -> Alcotest.failf "spill_order=%b refused: %s" b m)
    [ true; false ]

(* A non-finite --min-profit has no JSON encoding (it would be sent as
   null), so [promote] and [client] refuse it as a usage error, and the
   decoder refuses it from any other client. *)
let test_min_profit_non_finite () =
  let rpromote =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "rpromote.exe"))
  in
  let exit_code args =
    let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close null)
        (fun () ->
          Unix.create_process rpromote
            (Array.of_list (rpromote :: args))
            Unix.stdin null null)
    in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  let no_daemon = Filename.concat (Filename.get_temp_dir_name ()) "rp-none.sock" in
  List.iter
    (fun v ->
      let flag = "--min-profit=" ^ v in
      List.iter
        (fun args ->
          let args = args @ [ flag ] in
          Alcotest.(check int) (String.concat " " args) 2 (exit_code args))
        [ [ "promote"; "go" ]; [ "client"; "--socket"; no_daemon; "go" ] ])
    [ "nan"; "inf"; "-inf" ];
  List.iter
    (fun f ->
      let o =
        {
          P.default_options with
          P.promote =
            {
              P.default_options.P.promote with
              Rp_core.Promote.cost =
                { Rp_core.Cost_model.min_profit = f; regs = None };
            };
        }
      in
      let req =
        Proto.Compile
          {
            Proto.target = `Workload "go";
            options = o;
            deterministic = true;
            deadline_s = None;
          }
      in
      let refused doc =
        match Proto.request_of_json doc with Error _ -> true | Ok _ -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "min_profit %h refused (encoded)" f)
        true
        (match J.parse (J.to_string (Proto.request_to_json req)) with
        | Ok doc -> refused doc
        | Error _ -> true);
      Alcotest.(check bool)
        (Printf.sprintf "min_profit %h refused (in memory)" f)
        true
        (refused (Proto.request_to_json req)))
    [ nan; infinity; neg_infinity ]

let test_bad_request_documents () =
  List.iter
    (fun doc ->
      match Proto.request_of_json doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded %s" (J.to_string doc))
    [
      J.Null;
      J.Int 3;
      J.Obj [];
      J.Obj [ ("v", J.Int Proto.version) ];
      (* wrong version *)
      J.Obj [ ("v", J.Int (Proto.version + 1)); ("req", J.Str "ping") ];
      J.Obj [ ("v", J.Int Proto.version); ("req", J.Str "no-such") ];
      (* compile without a target *)
      J.Obj [ ("v", J.Int Proto.version); ("req", J.Str "compile") ];
    ]

(* ------------------------------------------------------------------ *)
(* Cache: units *)

let test_cache_basics () =
  let c = Cache.create ~max_bytes:10_000 ~max_entries:8 () in
  Alcotest.(check (option string)) "miss" None (Cache.find c "a");
  Cache.add c ~key:"a" "1";
  Cache.add c ~key:"b" "2";
  Alcotest.(check (option string)) "hit" (Some "1") (Cache.find c "a");
  (* the hit refreshed "a": MRU order is a, b *)
  Alcotest.(check (list string)) "mru order" [ "a"; "b" ] (Cache.keys_mru c);
  Cache.add c ~key:"a" "one";
  Alcotest.(check (option string)) "replace" (Some "one") (Cache.find c "a");
  let s = Cache.stats c in
  Alcotest.(check int) "entries" 2 s.Cache.entries;
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Cache.stats c).Cache.entries;
  Alcotest.(check int) "cleared bytes" 0 (Cache.stats c).Cache.bytes

let test_cache_entry_eviction () =
  let c = Cache.create ~max_bytes:1_000_000 ~max_entries:3 () in
  List.iter (fun k -> Cache.add c ~key:k "v") [ "a"; "b"; "c"; "d" ];
  Alcotest.(check (list string)) "LRU evicted" [ "d"; "c"; "b" ]
    (Cache.keys_mru c);
  Alcotest.(check int) "eviction counted" 1 (Cache.stats c).Cache.evictions

let test_cache_byte_eviction () =
  (* cost = |key| + |value| + 64; key "a" + 35-byte value = 100 *)
  let c = Cache.create ~max_bytes:250 ~max_entries:100 () in
  let v = String.make 35 'x' in
  Cache.add c ~key:"a" v;
  Cache.add c ~key:"b" v;
  Cache.add c ~key:"c" v;
  Alcotest.(check (list string)) "byte bound evicts LRU" [ "c"; "b" ]
    (Cache.keys_mru c);
  Alcotest.(check int) "bytes accounted" 200 (Cache.stats c).Cache.bytes

let test_cache_oversized () =
  let c = Cache.create ~max_bytes:100 ~max_entries:100 () in
  Cache.add c ~key:"small" "v";
  Cache.add c ~key:"big" (String.make 200 'x');
  Alcotest.(check (option string)) "oversized not cached" None
    (Cache.find c "big");
  Alcotest.(check (option string)) "oversized did not flush others" (Some "v")
    (Cache.find c "small")

let test_cache_key_distinct () =
  let fp o = Proto.options_fingerprint ~for_key:true o in
  let o = P.default_options in
  let k = Cache.key ~source:"s" ~options_fp:(fp o) ~label:"l" ~deterministic:true in
  let distinct =
    [
      Cache.key ~source:"s2" ~options_fp:(fp o) ~label:"l" ~deterministic:true;
      Cache.key ~source:"s" ~options_fp:(fp { o with P.fuel = 7 }) ~label:"l"
        ~deterministic:true;
      Cache.key ~source:"s" ~options_fp:(fp o) ~label:"l2" ~deterministic:true;
      Cache.key ~source:"s" ~options_fp:(fp o) ~label:"l" ~deterministic:false;
    ]
  in
  List.iter
    (fun k' -> Alcotest.(check bool) "key differs" true (k <> k'))
    distinct;
  Alcotest.(check string) "key stable" k
    (Cache.key ~source:"s" ~options_fp:(fp o) ~label:"l" ~deterministic:true)

let test_cache_key_bytes_bounded () =
  (* key bytes are part of every entry's cost: long keys with tiny
     values must still respect the byte budget.  cost = 100 + 1 + 64 =
     165, so a 1000-byte budget holds at most 6 entries no matter how
     small the values are. *)
  let c = Cache.create ~max_bytes:1000 ~max_entries:1000 () in
  for i = 0 to 49 do
    let key = Printf.sprintf "%0100d" i in
    Cache.add c ~key "v"
  done;
  let s = Cache.stats c in
  Alcotest.(check bool)
    (Printf.sprintf "accounted bytes %d within budget" s.Cache.bytes)
    true
    (s.Cache.bytes <= 1000);
  Alcotest.(check int) "key bytes keep the entry count down" 6 s.Cache.entries;
  Alcotest.(check int) "everything beyond the budget was evicted" 44
    s.Cache.evictions

(* ------------------------------------------------------------------ *)
(* Store: the persistent tier, against real temp directories *)

module Store = Rp_serve.Store

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp_store_test_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* lowercase-hex keys, as Cache.key produces *)
let hkey i = Printf.sprintf "%032x" i

let test_store_roundtrip_restart () =
  with_tmp_dir @@ fun dir ->
  let st = Store.open_dir dir in
  Alcotest.(check (option string)) "cold miss" None (Store.find st (hkey 1));
  Store.add st ~key:(hkey 1) "one";
  Store.add st ~key:(hkey 2) "two";
  Alcotest.(check (option string)) "hit" (Some "one") (Store.find st (hkey 1));
  Store.add st ~key:(hkey 1) "one";
  Alcotest.(check int) "same-key re-add refreshes, not rewrites" 2
    (Store.stats st).Store.entries;
  (* a second open of the same directory must see both values: this is
     the restart-persistence contract *)
  let st2 = Store.open_dir dir in
  Alcotest.(check (option string)) "survives reopen" (Some "one")
    (Store.find st2 (hkey 1));
  Alcotest.(check (option string)) "survives reopen (2)" (Some "two")
    (Store.find st2 (hkey 2));
  Alcotest.(check int) "index rebuilt" 2 (Store.stats st2).Store.entries

let test_store_sweeps_temporaries () =
  with_tmp_dir @@ fun dir ->
  let st = Store.open_dir dir in
  Store.add st ~key:(hkey 7) "kept";
  (* a crash mid-write leaves a temporary behind; reopening must
     remove it and keep the committed value *)
  let tmp = Filename.concat dir (hkey 8 ^ ".tmp.12345.0") in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc "junk");
  let st2 = Store.open_dir dir in
  Alcotest.(check int) "temporary swept" 1 (Store.stats st2).Store.swept;
  Alcotest.(check bool) "temporary gone" false (Sys.file_exists tmp);
  Alcotest.(check (option string)) "committed value kept" (Some "kept")
    (Store.find st2 (hkey 7))

let test_store_eviction () =
  with_tmp_dir @@ fun dir ->
  (* per-entry cost: 64 value + 32 key + 4 ext + 256 overhead = 356 *)
  let st = Store.open_dir ~max_bytes:(3 * 356) dir in
  let v = String.make 64 'x' in
  List.iter (fun i -> Store.add st ~key:(hkey i) v) [ 1; 2; 3; 4 ];
  let s = Store.stats st in
  Alcotest.(check int) "evicted to bound" 3 s.Store.entries;
  Alcotest.(check int) "eviction counted" 1 s.Store.evictions;
  Alcotest.(check (list string)) "LRU file went first"
    [ hkey 4; hkey 3; hkey 2 ]
    (Store.keys_mru st);
  Alcotest.(check bool) "evicted file unlinked" false
    (Sys.file_exists (Filename.concat dir (hkey 1 ^ ".rpc")))

let test_store_torn_file () =
  with_tmp_dir @@ fun dir ->
  let st = Store.open_dir dir in
  Store.add st ~key:(hkey 5) "full value";
  (* truncate the file behind the index's back: the read must detect
     the size mismatch, drop the entry and miss — never serve a torn
     value *)
  Out_channel.with_open_bin
    (Filename.concat dir (hkey 5 ^ ".rpc"))
    (fun oc -> Out_channel.output_string oc "torn");
  Alcotest.(check (option string)) "torn value not served" None
    (Store.find st (hkey 5));
  let s = Store.stats st in
  Alcotest.(check int) "error counted" 1 s.Store.errors;
  Alcotest.(check int) "entry dropped" 0 s.Store.entries

let test_store_rejects_bad_keys () =
  with_tmp_dir @@ fun dir ->
  let st = Store.open_dir dir in
  (* non-hex keys could escape the directory; they must be ignored *)
  Store.add st ~key:"../../etc/passwd" "evil";
  Store.add st ~key:"UPPER" "evil";
  Store.add st ~key:"" "evil";
  Alcotest.(check int) "nothing stored" 0 (Store.stats st).Store.entries;
  Alcotest.(check (option string)) "nothing served" None
    (Store.find st "../../etc/passwd")

let test_cache_store_layering () =
  with_tmp_dir @@ fun dir ->
  (* write-through: an add lands in both tiers *)
  let st = Store.open_dir dir in
  let c = Cache.create ~max_bytes:10_000 ~max_entries:8 ~store:st () in
  Cache.add c ~key:(hkey 1) "report-bytes";
  Alcotest.(check (option string)) "write-through to disk"
    (Some "report-bytes")
    (Store.find st (hkey 1));
  (* a fresh in-memory cache over the same directory starts cold but
     promotes from the persistent tier: memory misses, store hits *)
  let st2 = Store.open_dir dir in
  let c2 = Cache.create ~max_bytes:10_000 ~max_entries:8 ~store:st2 () in
  Alcotest.(check (option string)) "promoted from the store"
    (Some "report-bytes")
    (Cache.find c2 (hkey 1));
  let s = Cache.stats c2 in
  Alcotest.(check int) "counted as a store hit" 1 s.Cache.store_hits;
  Alcotest.(check int) "not a memory hit" 0 s.Cache.hits;
  (* now resident: the second lookup is a pure memory hit *)
  Alcotest.(check (option string)) "second lookup from memory"
    (Some "report-bytes")
    (Cache.find c2 (hkey 1));
  Alcotest.(check int) "memory hit counted" 1 (Cache.stats c2).Cache.hits;
  (* a store-less cache keeps the historical counting exactly *)
  Alcotest.(check int) "store absent by default" 0
    (Cache.stats (Cache.create ())).Cache.store_hits

(* ------------------------------------------------------------------ *)
(* Cache: differential oracle against a naive assoc-list LRU *)

module Model = struct
  (* MRU-first assoc list, same cost accounting as the real cache *)
  type t = {
    mutable entries : (string * string) list;
    max_bytes : int;
    max_entries : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~max_bytes ~max_entries =
    { entries = []; max_bytes; max_entries; hits = 0; misses = 0; evictions = 0 }

  let cost (k, v) = String.length k + String.length v + 64
  let bytes m = List.fold_left (fun a e -> a + cost e) 0 m.entries

  let find m k =
    match List.assoc_opt k m.entries with
    | Some v ->
        m.hits <- m.hits + 1;
        m.entries <- (k, v) :: List.remove_assoc k m.entries;
        Some v
    | None ->
        m.misses <- m.misses + 1;
        None

  let add m k v =
    if cost (k, v) <= m.max_bytes && m.max_entries > 0 then begin
      m.entries <- (k, v) :: List.remove_assoc k m.entries;
      while bytes m > m.max_bytes || List.length m.entries > m.max_entries do
        m.entries <- List.rev (List.tl (List.rev m.entries));
        m.evictions <- m.evictions + 1
      done
    end
end

type cache_op = Find of string | Add of string * string

let gen_ops : cache_op list G.t =
  let open G in
  let key = map (fun i -> "k" ^ string_of_int i) (int_bound 7) in
  let op =
    oneof
      [
        map (fun k -> Find k) key;
        map2 (fun k n -> Add (k, String.make n 'v')) key (int_bound 120);
      ]
  in
  list_size (int_bound 60) op

let prop_cache_matches_model =
  QCheck.Test.make ~name:"cache vs assoc-list LRU model" ~count:500
    (QCheck.make gen_ops ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function
                | Find k -> "F" ^ k
                | Add (k, v) -> Printf.sprintf "A%s/%d" k (String.length v))
              ops)))
    (fun ops ->
      let max_bytes = 400 and max_entries = 4 in
      let c = Cache.create ~max_bytes ~max_entries () in
      let m = Model.create ~max_bytes ~max_entries in
      List.for_all
        (fun op ->
          (match op with
          | Find k -> Cache.find c k = Model.find m k
          | Add (k, v) ->
              Cache.add c ~key:k v;
              Model.add m k v;
              true)
          &&
          let s = Cache.stats c in
          Cache.keys_mru c = List.map fst m.Model.entries
          && s.Cache.entries = List.length m.Model.entries
          && s.Cache.bytes = Model.bytes m
          && s.Cache.hits = m.Model.hits
          && s.Cache.misses = m.Model.misses
          && s.Cache.evictions = m.Model.evictions)
        ops)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "oversized write refused" `Quick test_frame_oversized_write;
    Alcotest.test_case "oversized length rejected" `Quick
      test_frame_oversized_length;
    Alcotest.test_case "negative length rejected" `Quick
      test_frame_negative_length;
    qtest prop_frame_roundtrip;
    qtest prop_frame_truncated;
    qtest prop_request_roundtrip;
    qtest prop_response_roundtrip;
    qtest prop_decode_total;
    Alcotest.test_case "fingerprint drops jobs for keys" `Quick
      test_fingerprint_jobs;
    Alcotest.test_case "budgeted fingerprint bytes pinned" `Quick
      test_fingerprint_budget_pinned;
    Alcotest.test_case "spill_order field from old clients ignored" `Quick
      test_spill_order_field_ignored;
    Alcotest.test_case "non-finite min_profit refused" `Quick
      test_min_profit_non_finite;
    Alcotest.test_case "bad request documents rejected" `Quick
      test_bad_request_documents;
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache entry-bound eviction" `Quick
      test_cache_entry_eviction;
    Alcotest.test_case "cache byte-bound eviction" `Quick
      test_cache_byte_eviction;
    Alcotest.test_case "cache oversized entry" `Quick test_cache_oversized;
    Alcotest.test_case "cache keys distinct" `Quick test_cache_key_distinct;
    Alcotest.test_case "cache key bytes bounded" `Quick
      test_cache_key_bytes_bounded;
    Alcotest.test_case "store round trip and restart" `Quick
      test_store_roundtrip_restart;
    Alcotest.test_case "store sweeps temporaries" `Quick
      test_store_sweeps_temporaries;
    Alcotest.test_case "store eviction" `Quick test_store_eviction;
    Alcotest.test_case "store torn file" `Quick test_store_torn_file;
    Alcotest.test_case "store rejects bad keys" `Quick
      test_store_rejects_bad_keys;
    Alcotest.test_case "cache-store layering" `Quick test_cache_store_layering;
    qtest prop_cache_matches_model;
  ]
