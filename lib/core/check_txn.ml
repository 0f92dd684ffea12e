open Txn_history

type model =
  | Strict_serializable
  | Process_ordered
  | Rss
  | Regular_vv
  | Crdb
  | Osc_u

let all_models =
  [ Strict_serializable; Process_ordered; Rss; Regular_vv; Crdb; Osc_u ]

let model_name = function
  | Strict_serializable -> "strict-serializable"
  | Process_ordered -> "process-ordered"
  | Rss -> "rss"
  | Regular_vv -> "vv-regular"
  | Crdb -> "crdb"
  | Osc_u -> "osc-u"

type result =
  | Sat of int list
  | Unsat
  | Unknown

(* Real-time order between two txns: a's response strictly precedes b's
   invocation. Incomplete txns impose no real-time constraints. *)
let rt_before a b =
  match a.resp with None -> false | Some r -> r < b.inv

let process_order_edges (h : Txn_history.t) =
  let by_proc = Hashtbl.create 8 in
  Array.iter
    (fun x ->
      let prev = try Hashtbl.find by_proc x.proc with Not_found -> [] in
      Hashtbl.replace by_proc x.proc (x :: prev))
    h.txns;
  Hashtbl.fold
    (fun _ txns acc ->
      let txns = List.sort (fun a b -> compare a.inv b.inv) txns in
      let rec pairs acc = function
        | a :: (b :: _ as rest) -> pairs ((a.id, b.id) :: acc) rest
        | [ _ ] | [] -> acc
      in
      pairs acc txns)
    by_proc []

(* Reads-from: a reads a value that b wrote (values unique per key). *)
let reads_from_edges (h : Txn_history.t) =
  let writer = Hashtbl.create 64 in
  Array.iter
    (fun x -> List.iter (fun (k, v) -> Hashtbl.replace writer (k, v) x.id) x.writes)
    h.txns;
  Array.fold_left
    (fun acc x ->
      if not (is_complete x) then acc
      else
        List.fold_left
          (fun acc (k, v) ->
            match v with
            | None -> acc
            | Some v -> (
              match Hashtbl.find_opt writer (k, v) with
              | Some w when w <> x.id -> (w, x.id) :: acc
              | Some _ | None -> acc))
          acc x.reads)
    [] h.txns

let causal (h : Txn_history.t) =
  let edges = process_order_edges h @ h.msg_edges @ reads_from_edges h in
  Causal.of_edges ~n:(n_txns h) edges

(* The "regular" real-time constraint shared by RSS and VV-regularity:
   a completed mutator precedes (i) every mutator and (ii) every conflicting
   reader that follows it in real time. *)
let regular_rt_edges (h : Txn_history.t) =
  let acc = ref [] in
  Array.iter
    (fun w ->
      if is_mutator w && is_complete w then
        Array.iter
          (fun o ->
            if o.id <> w.id && rt_before w o then
              if is_mutator o || conflicts w o then acc := (w.id, o.id) :: !acc)
          h.txns)
    h.txns;
  !acc

let share_conflicting_key a b =
  let touches_write w other =
    List.exists
      (fun (k, _) ->
        List.mem_assoc k other.reads || List.exists (fun (k', _) -> k' = k) other.writes)
      w.writes
  in
  touches_write a b || touches_write b a

let constraint_edges (h : Txn_history.t) model =
  let all_rt () =
    let acc = ref [] in
    Array.iter
      (fun a ->
        Array.iter
          (fun b -> if a.id <> b.id && rt_before a b then acc := (a.id, b.id) :: !acc)
          h.txns)
      h.txns;
    !acc
  in
  match model with
  | Strict_serializable -> process_order_edges h @ all_rt ()
  | Process_ordered -> process_order_edges h
  | Rss -> Causal.edges (causal h) @ regular_rt_edges h
  | Regular_vv -> regular_rt_edges h
  | Crdb ->
    let rt_conflicting =
      let acc = ref [] in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              if a.id <> b.id && rt_before a b && share_conflicting_key a b then
                acc := (a.id, b.id) :: !acc)
            h.txns)
        h.txns;
      !acc
    in
    process_order_edges h @ rt_conflicting
  | Osc_u ->
    let rt_into_writes =
      let acc = ref [] in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              if a.id <> b.id && is_mutator b && rt_before a b then
                acc := (a.id, b.id) :: !acc)
            h.txns)
        h.txns;
      !acc
    in
    process_order_edges h @ rt_into_writes

(* Which transactions participate in the serialization search?
   All complete ones, plus incomplete mutators whose writes were observed by
   a complete transaction (they definitely took effect; per §3.4 the
   execution is extended with their responses). Unobserved incomplete
   transactions can always be appended at the end of any witness order, so
   dropping them is sound and complete. *)
let included_txns (h : Txn_history.t) =
  let observed = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      if is_complete x then
        List.iter
          (fun (_, v) -> match v with None -> () | Some v -> Hashtbl.replace observed v ())
          x.reads)
    h.txns;
  Array.to_list h.txns
  |> List.filter (fun x ->
         is_complete x
         || List.exists (fun (_, v) -> Hashtbl.mem observed v) x.writes)
  |> List.map (fun x -> x.id)

exception Found of int list
exception Budget

let search (h : Txn_history.t) edges included max_states =
  let n = n_txns h in
  let in_search = Array.make n false in
  List.iter (fun id -> in_search.(id) <- true) included;
  let total = List.length included in
  (* Successors and indegrees restricted to included txns. *)
  let succs = Array.make n [] in
  let indeg = Array.make n 0 in
  List.iter
    (fun (a, b) ->
      if in_search.(a) && in_search.(b) then begin
        succs.(a) <- b :: succs.(a);
        indeg.(b) <- indeg.(b) + 1
      end)
    (List.sort_uniq compare edges);
  let appended = Array.make n false in
  let store : (key, value) Hashtbl.t = Hashtbl.create 16 in
  let states = ref 0 in
  let memo = Hashtbl.create 1024 in
  let fingerprint () =
    let bits = Bytes.make n '0' in
    Array.iteri (fun i v -> if v then Bytes.set bits i '1') appended;
    let kvs =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) store []
      |> List.sort compare
      |> List.map (fun (k, v) -> Fmt.str "%s=%d" k v)
      |> String.concat ";"
    in
    Bytes.to_string bits ^ "|" ^ kvs
  in
  let compatible x =
    (* Incomplete transactions never responded, so their reads constrain
       nothing; complete ones must have seen exactly the current store. *)
    (not (is_complete x))
    || List.for_all
         (fun (k, v) ->
           match (Hashtbl.find_opt store k, v) with
           | None, None -> true
           | Some sv, Some v -> sv = v
           | None, Some _ | Some _, None -> false)
         x.reads
  in
  let rec dfs depth path =
    if depth = total then raise (Found (List.rev path));
    incr states;
    if !states > max_states then raise Budget;
    let fp = fingerprint () in
    if not (Hashtbl.mem memo fp) then begin
      Hashtbl.add memo fp ();
      for id = 0 to n - 1 do
        if in_search.(id) && (not appended.(id)) && indeg.(id) = 0 then begin
          let x = txn h id in
          if compatible x then begin
            (* Apply: save overwritten values for undo. *)
            let saved =
              List.map (fun (k, _) -> (k, Hashtbl.find_opt store k)) x.writes
            in
            List.iter (fun (k, v) -> Hashtbl.replace store k v) x.writes;
            appended.(id) <- true;
            List.iter (fun s -> if in_search.(s) then indeg.(s) <- indeg.(s) - 1) succs.(id);
            dfs (depth + 1) (id :: path);
            List.iter (fun s -> if in_search.(s) then indeg.(s) <- indeg.(s) + 1) succs.(id);
            appended.(id) <- false;
            List.iter
              (fun (k, old) ->
                match old with
                | None -> Hashtbl.remove store k
                | Some v -> Hashtbl.replace store k v)
              saved
          end
        end
      done
    end
  in
  try
    dfs 0 [];
    Unsat
  with
  | Found order -> Sat order
  | Budget -> Unknown

let check ?(max_states = 2_000_000) h model =
  (* A cycle in the mandatory edges, the causal order's included, means no
     total order exists at all. *)
  match constraint_edges h model with
  | exception Invalid_argument _ -> Unsat
  | edges -> (
    match Causal.of_edges ~n:(n_txns h) edges with
    | exception Invalid_argument _ -> Unsat
    | _ -> search h edges (included_txns h) max_states)

let satisfies ?max_states h model =
  match check ?max_states h model with
  | Sat _ -> Some true
  | Unsat -> Some false
  | Unknown -> None
