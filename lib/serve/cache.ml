(* Bounded LRU keyed by content digest: a hash table from key to an
   intrusive doubly-linked node, with the list kept in recency order
   (head = most recent).  Every operation is O(1); eviction pops the
   tail until the byte and entry bounds hold.

   An optional persistent Store tier sits underneath: memory misses
   fall through to the store, store hits are promoted back into the
   memory LRU, and inserts write through so warm entries survive a
   restart.  Without a store the behaviour is exactly the historical
   in-memory cache. *)

module J = Rp_obs.Json

type node = {
  nkey : string;
  mutable value : string;
  mutable prev : node option;  (* towards MRU *)
  mutable next : node option;  (* towards LRU *)
}

type t = {
  m : Mutex.t;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;  (* MRU *)
  mutable tail : node option;  (* LRU, evicted first *)
  mutable bytes : int;
  mutable entries : int;
  max_bytes : int;
  max_entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  store : Store.t option;
  mutable store_hits : int;
}

(* hashtable + list-node bookkeeping, amortised per entry *)
let overhead = 64

let cost ~key ~value = String.length key + String.length value + overhead

let create ?(max_bytes = 64 * 1024 * 1024) ?(max_entries = 4096) ?store () =
  {
    m = Mutex.create ();
    tbl = Hashtbl.create 64;
    head = None;
    tail = None;
    bytes = 0;
    entries = 0;
    max_bytes = max max_bytes 0;
    max_entries = max max_entries 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    store;
    store_hits = 0;
  }

let store c = c.store

let locked c f =
  Mutex.lock c.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.m) f

(* The first element is the salt: it names the compiler build a report
   came from.  A change that moves the bytes of a report without moving
   [Report.schema_version] bumps it, so a daemon restarted over a store
   an older build wrote compiles again instead of answering with the
   older reports; so does a change to what the values hold.  ".2":
   memory SSA for the loaded or stored variables only, which moved
   [webs_seen], [webs_skipped_profit] and [dummies_added].  ".3": the
   values are the framed [Report {cached = true}] payloads the
   multiplexer sends, no longer the bare reports. *)
let key ~source ~options_fp ~label ~deterministic =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            "rp-serve-cache.3";
            string_of_int Rp_obs.Report.schema_version;
            label;
            (if deterministic then "det" else "wall");
            options_fp;
            source;
          ]))

(* ---- intrusive list primitives (call with the lock held) ---- *)

let unlink c n =
  (match n.prev with Some p -> p.next <- n.next | None -> c.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> c.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front c n =
  n.prev <- None;
  n.next <- c.head;
  (match c.head with Some h -> h.prev <- Some n | None -> c.tail <- Some n);
  c.head <- Some n

let drop c n =
  unlink c n;
  Hashtbl.remove c.tbl n.nkey;
  c.bytes <- c.bytes - cost ~key:n.nkey ~value:n.value;
  c.entries <- c.entries - 1

let evict_to_bounds c =
  while
    (c.bytes > c.max_bytes || c.entries > c.max_entries)
    && c.tail <> None
  do
    (match c.tail with
    | Some n ->
        drop c n;
        c.evictions <- c.evictions + 1
    | None -> ())
  done

(* ---- public operations ---- *)

(* insert without counting a miss/hit: promotion of a store hit into
   the memory tier (call with the lock held) *)
let insert c k value =
  if cost ~key:k ~value <= c.max_bytes && c.max_entries > 0 then begin
    (match Hashtbl.find_opt c.tbl k with Some old -> drop c old | None -> ());
    let n = { nkey = k; value; prev = None; next = None } in
    Hashtbl.replace c.tbl k n;
    push_front c n;
    c.bytes <- c.bytes + cost ~key:k ~value;
    c.entries <- c.entries + 1;
    evict_to_bounds c
  end

let find c k =
  locked c @@ fun () ->
  match Hashtbl.find_opt c.tbl k with
  | Some n ->
      c.hits <- c.hits + 1;
      unlink c n;
      push_front c n;
      Some n.value
  | None -> (
      match c.store with
      | None ->
          c.misses <- c.misses + 1;
          None
      | Some st -> (
          match Store.find st k with
          | Some value ->
              (* persistent hit: promote into the memory LRU so the
                 next lookup is pure memory *)
              c.store_hits <- c.store_hits + 1;
              insert c k value;
              Some value
          | None ->
              c.misses <- c.misses + 1;
              None))

let add c ~key:k value =
  locked c @@ fun () ->
  (* an entry no budget can hold is not cached (and cannot be allowed
     to flush the whole cache on the way through) *)
  insert c k value;
  (* write through: the store applies its own budget rule *)
  match c.store with None -> () | Some st -> Store.add st ~key:k value

let clear c =
  locked c @@ fun () ->
  Hashtbl.reset c.tbl;
  c.head <- None;
  c.tail <- None;
  c.bytes <- 0;
  c.entries <- 0

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
  max_bytes : int;
  max_entries : int;
  store_hits : int;
}

let stats c =
  locked c @@ fun () ->
  {
    hits = c.hits;
    misses = c.misses;
    evictions = c.evictions;
    entries = c.entries;
    bytes = c.bytes;
    max_bytes = c.max_bytes;
    max_entries = c.max_entries;
    store_hits = c.store_hits;
  }

let keys_mru c =
  locked c @@ fun () ->
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk (n.nkey :: acc) n.next
  in
  walk [] c.head

let publish_metrics c =
  let s = stats c in
  Rp_obs.Metrics.set_gauge "cache.hits" (float_of_int s.hits);
  Rp_obs.Metrics.set_gauge "cache.misses" (float_of_int s.misses);
  Rp_obs.Metrics.set_gauge "cache.evictions" (float_of_int s.evictions);
  Rp_obs.Metrics.set_gauge "cache.bytes" (float_of_int s.bytes)

let stats_json c =
  let s = stats c in
  let lookups = s.hits + s.store_hits + s.misses in
  J.Obj
    ([
       ("hits", J.Int s.hits);
       ("misses", J.Int s.misses);
       ("evictions", J.Int s.evictions);
       ("entries", J.Int s.entries);
       ("bytes", J.Int s.bytes);
       ("max_bytes", J.Int s.max_bytes);
       ("max_entries", J.Int s.max_entries);
       ("store_hits", J.Int s.store_hits);
       ( "hit_ratio",
         if lookups = 0 then J.Null
         else
           J.Float
             (float_of_int (s.hits + s.store_hits) /. float_of_int lookups) );
     ]
    @ match c.store with
      | None -> []
      | Some st -> [ ("store", Store.stats_json st) ])
