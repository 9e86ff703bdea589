(* Reading BENCH_promotion.json back: the lookups the gate makes, and
   the drift comparison that makes the committed artifact the one
   golden of the harness's deterministic counts. *)

module J = Rp_obs.Json

let file = "BENCH_promotion.json"

let schema_version = 6

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error ("cannot read " ^ path ^ ": " ^ e)
  | text -> (
      match J.parse text with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok doc -> (
          match J.member doc "schema_version" with
          | Some (J.Int v) when v = schema_version -> Ok doc
          | _ ->
              Error
                (Printf.sprintf "%s: not a schema_version %d artifact" path
                   schema_version)))

let num = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let named name = function
  | J.Arr items ->
      List.find_opt (fun e -> J.member e "name" = Some (J.Str name)) items
  | _ -> None

let find doc path =
  List.fold_left
    (fun acc key -> Option.bind acc (fun v -> J.member v key))
    (Some doc) path

let median doc path = num (find doc (path @ [ "median" ]))

let spread_json (s : Rounds.spread) =
  J.Obj [ ("median", J.Float s.Rounds.median); ("iqr", J.Float s.Rounds.iqr) ]

(* ------------------------------------------------------------------ *)
(* Drift *)

let drift_keys = [ "static"; "dynamic"; "promotion"; "pressure" ]

(* an array element is labelled by its "name" when it has one *)
let label i = function
  | J.Obj _ as e -> (
      match J.member e "name" with Some (J.Str s) -> s | _ -> string_of_int i)
  | _ -> string_of_int i

let show = J.to_string ~minify:true

let rec diff path committed fresh acc =
  match (committed, fresh) with
  | J.Obj c, J.Obj f ->
      let acc =
        List.fold_left
          (fun acc (k, cv) ->
            let p = path ^ "." ^ k in
            match List.assoc_opt k f with
            | Some fv -> diff p cv fv acc
            | None ->
                (p ^ ": committed " ^ show cv ^ ", fresh run lacks it") :: acc)
          acc c
      in
      List.fold_left
        (fun acc (k, fv) ->
          if List.mem_assoc k c then acc
          else
            (path ^ "." ^ k ^ ": fresh " ^ show fv ^ ", artifact lacks it")
            :: acc)
        acc f
  | J.Arr c, J.Arr f when List.length c = List.length f ->
      let i = ref (-1) in
      List.fold_left2
        (fun acc cv fv ->
          incr i;
          diff (path ^ "[" ^ label !i cv ^ "]") cv fv acc)
        acc c f
  | J.Arr c, J.Arr f ->
      Printf.sprintf "%s: committed %d entries, fresh %d" path (List.length c)
        (List.length f)
      :: acc
  | c, f ->
      if J.equal c f then acc
      else (path ^ ": committed " ^ show c ^ ", fresh " ^ show f) :: acc

let drift ~committed ~fresh =
  let committed_workloads =
    match J.member committed "workloads" with Some (J.Arr l) -> l | _ -> []
  in
  let name w = match J.member w "name" with Some (J.Str s) -> s | _ -> "?" in
  let missing =
    List.filter_map
      (fun w ->
        if List.exists (fun f -> name f = name w) fresh then None
        else Some (name w ^ ": in the artifact, not in the fresh run"))
      committed_workloads
  in
  let compared =
    List.concat_map
      (fun f ->
        let n = name f in
        match named n (J.Arr committed_workloads) with
        | None -> [ n ^ ": in the fresh run, not in the artifact" ]
        | Some c ->
            List.concat_map
              (fun key ->
                let p = n ^ "." ^ key in
                match (J.member c key, J.member f key) with
                | Some cv, Some fv -> List.rev (diff p cv fv [])
                | None, _ -> [ p ^ ": artifact lacks it" ]
                | _, None -> [ p ^ ": fresh run lacks it" ])
              drift_keys)
      fresh
  in
  missing @ compared
