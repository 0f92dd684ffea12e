type report = {
  transformed : Schedule.t;
  equivalent : bool;
  valid : bool;
  sequential : bool;
}

let check_sequential (t : Schedule.t) =
  (* Scan: while an operation is open, no other invocation may appear. *)
  let open_op = ref None in
  let ok = ref true in
  Array.iter
    (fun a ->
      match (a : Action.t) with
      | Action.Invoke { op; _ } ->
        if !open_op <> None then ok := false else open_op := Some op
      | Action.Response { op; _ } ->
        (match !open_op with
        | Some op' when op' = op -> open_op := None
        | Some _ | None -> ok := false)
      | Action.Internal _ | Action.Sendto _ | Action.Sent _ | Action.Recvfrom _
      | Action.Received _ ->
        ())
    t;
  !ok

let lemma_c5 ~(sched : Schedule.t) ~serialization ?(reads_from = []) () =
  let n = Array.length sched in
  (* S-positions: invocation of the p-th op at 2p, its response at 2p+1;
     unserialized ops after everything. *)
  let op_pos = Hashtbl.create 16 in
  List.iteri (fun p op -> Hashtbl.replace op_pos op p) serialization;
  let unserialized = 2 * List.length serialization in
  let s_position (a : Action.t) =
    match a with
    | Action.Invoke { op; _ } -> (
      match Hashtbl.find_opt op_pos op with
      | Some p -> Some (2 * p)
      | None -> Some unserialized)
    | Action.Response { op; _ } -> (
      match Hashtbl.find_opt op_pos op with
      | Some p -> Some ((2 * p) + 1)
      | None -> Some (unserialized + 1))
    | Action.Internal _ | Action.Sendto _ | Action.Sent _ | Action.Recvfrom _
    | Action.Received _ ->
      None
  in
  (* One forward pass over the schedule, a topological order of its direct
     causal edges: [m.(i)] is the S-maximal position among i and its causal
     predecessors, held by action [holder.(i)]. The premise (S respects
     potential causality) fails where a system-facing action's own
     position is below its predecessors' maximum. *)
  let preds = Array.make n [] in
  List.iter
    (fun (a, b) -> preds.(b) <- a :: preds.(b))
    (Schedule.edges ~reads_from sched);
  let m = Array.make n (-1) and holder = Array.make n (-1) in
  let rec pass i =
    if i = n then Ok ()
    else begin
      List.iter
        (fun p -> if m.(p) > m.(i) then (m.(i) <- m.(p); holder.(i) <- holder.(p)))
        preds.(i);
      match s_position sched.(i) with
      | Some own when own < m.(i) ->
        Error (Fmt.str "S orders action %d before %d against causality" i holder.(i))
      | Some own ->
        m.(i) <- own;
        holder.(i) <- i;
        pass (i + 1)
      | None -> pass (i + 1)
    end
  in
  match pass 0 with
  | Error _ as e -> e
  | Ok () ->
    (* Stable sort by M — the ≺ / ≡ order of the proof. *)
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b -> if m.(a) <> m.(b) then compare m.(a) m.(b) else compare a b)
      order;
    let transformed = Array.map (fun i -> sched.(i)) order in
    let equivalent = Schedule.equivalent sched transformed in
    let valid = match Schedule.validate transformed with Ok () -> true | Error _ -> false in
    let sequential = check_sequential transformed in
    Ok { transformed; equivalent; valid; sequential }
