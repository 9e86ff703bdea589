(* The trace/metrics registries in Rp_obs are process-global, and
   [Pipeline.run_fresh_json] resets them around every compile.  Any
   number of mux instances may coexist in one process (tests
   run an in-process shard fleet), so the guard serialising compiles
   and stats snapshots must be process-global too — a per-instance
   lock would let two instances tear each other's deterministic
   reports. *)

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
