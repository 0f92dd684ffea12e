type t = Action.t array

let channel_actions t =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun a ->
      match Action.channel_of a with
      | None -> ()
      | Some ch ->
        Hashtbl.replace tbl ch (a :: (try Hashtbl.find tbl ch with Not_found -> [])))
    t;
  Hashtbl.fold (fun ch acts acc -> (ch, List.rev acts) :: acc) tbl []

let validate t =
  let exception Bad of string in
  try
    (* Channels. *)
    List.iter
      (fun ((src, dst), acts) ->
        (match Channel.replay acts with
        | Ok _ -> ()
        | Error m -> raise (Bad (Fmt.str "channel %d->%d: %s" src dst m)));
        match Channel.well_formed acts with
        | Ok () -> ()
        | Error m -> raise (Bad (Fmt.str "channel %d->%d: %s" src dst m)))
      (channel_actions t);
    (* Processes. *)
    let outstanding : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let op_invoked = Hashtbl.create 16 in
    let op_responded = Hashtbl.create 16 in
    Array.iter
      (fun a ->
        let proc = Action.proc_of a in
        let awaiting = Hashtbl.mem outstanding proc in
        (match a with
        | Action.Invoke { op; _ } ->
          if awaiting then raise (Bad (Fmt.str "p%d invokes while awaiting" proc));
          if Hashtbl.mem op_invoked op then raise (Bad (Fmt.str "op %d invoked twice" op));
          Hashtbl.replace op_invoked op proc;
          Hashtbl.replace outstanding proc op
        | Action.Response { op; _ } ->
          (match Hashtbl.find_opt outstanding proc with
          | Some op' when op' = op -> Hashtbl.remove outstanding proc
          | Some _ | None ->
            raise (Bad (Fmt.str "p%d response for op %d without invocation" proc op)));
          if Hashtbl.mem op_responded op then
            raise (Bad (Fmt.str "op %d responded twice" op));
          Hashtbl.replace op_responded op ()
        | Action.Sendto _ | Action.Recvfrom _ ->
          if awaiting then
            raise (Bad (Fmt.str "p%d takes an output step while awaiting" proc))
        | Action.Internal _ | Action.Sent _ | Action.Received _ -> ()))
      t;
    Ok ()
  with Bad m -> Error m

let projection t ~proc =
  Array.to_list t |> List.filter (fun a -> Action.proc_of a = proc)

let procs t =
  Array.to_list t |> List.map Action.proc_of |> List.sort_uniq compare

let equivalent a b =
  let ps = List.sort_uniq compare (procs a @ procs b) in
  List.for_all (fun proc -> projection a ~proc = projection b ~proc) ps

let edges ?(reads_from = []) t =
  let edges = ref reads_from in
  (* Process order: chain consecutive actions of each process. *)
  let last_of_proc = Hashtbl.create 8 in
  Array.iteri
    (fun i a ->
      let proc = Action.proc_of a in
      (match Hashtbl.find_opt last_of_proc proc with
      | Some j -> edges := (j, i) :: !edges
      | None -> ());
      Hashtbl.replace last_of_proc proc i)
    t;
  (* Message pairing: k-th sendto on a channel -> k-th received (FIFO). *)
  let sends = Hashtbl.create 8 and recvs = Hashtbl.create 8 in
  Array.iteri
    (fun i a ->
      match a with
      | Action.Sendto { src; dst; _ } ->
        Hashtbl.replace sends (src, dst)
          (i :: (try Hashtbl.find sends (src, dst) with Not_found -> []))
      | Action.Received { src; dst; _ } ->
        Hashtbl.replace recvs (src, dst)
          (i :: (try Hashtbl.find recvs (src, dst) with Not_found -> []))
      | Action.Internal _ | Action.Sent _ | Action.Recvfrom _ | Action.Invoke _
      | Action.Response _ ->
        ())
    t;
  Hashtbl.iter
    (fun ch send_idxs ->
      let send_idxs = List.rev send_idxs in
      let recv_idxs =
        match Hashtbl.find_opt recvs ch with None -> [] | Some l -> List.rev l
      in
      let rec pair ss rs =
        match (ss, rs) with
        | s :: ss', r :: rs' ->
          edges := (s, r) :: !edges;
          pair ss' rs'
        | _, [] | [], _ -> ()
      in
      pair send_idxs recv_idxs)
    sends;
  let n = Array.length t in
  List.iter
    (fun (a, b) ->
      if a < 0 || b >= n then
        invalid_arg (Fmt.str "Schedule.edges: edge (%d,%d) out of range" a b);
      if a >= b then
        invalid_arg (Fmt.str "Schedule.edges: edge (%d,%d) against schedule order" a b))
    !edges;
  !edges

let causal ?reads_from t =
  Rss_core.Causal.of_edges ~n:(Array.length t) (edges ?reads_from t)

let commutable (a : Action.t) (b : Action.t) =
  let send_side = function Action.Sendto _ | Action.Sent _ -> true | _ -> false in
  let recv_side = function Action.Recvfrom _ | Action.Received _ -> true | _ -> false in
  let same_message a b =
    match (a, b) with
    | Action.Sendto { msg; _ }, Action.Received { msg = m'; _ }
    | Action.Received { msg = m'; _ }, Action.Sendto { msg; _ } ->
      msg = m'
    | _ -> false
  in
  (send_side a && recv_side b) || (recv_side a && send_side b)
  |> fun sides_ok -> sides_ok && not (same_message a b)

let swap_adjacent t k =
  if k < 0 || k + 1 >= Array.length t then Error "index out of range"
  else begin
    let a = t.(k) and b = t.(k + 1) in
    match (Action.channel_of a, Action.channel_of b) with
    | Some ch1, Some ch2 when ch1 = ch2 ->
      if Action.proc_of a = Action.proc_of b then
        Error "cannot reorder one process's actions"
      else if not (commutable a b) then Error "actions do not commute (Lemmas C.1-C.4)"
      else begin
        let t' = Array.copy t in
        t'.(k) <- b;
        t'.(k + 1) <- a;
        match validate t' with
        | Ok () -> Ok t'
        | Error m -> Error (Fmt.str "swap broke the execution (!): %s" m)
      end
    | _ -> Error "not actions of one channel"
  end
