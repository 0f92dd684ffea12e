(* Tests for the executable Appendix C machinery: the Fig. 17 channel
   automaton, schedule validation, the commutation lemmas (C.1-C.4), and
   the Lemma C.5 transformation — including a property test that randomly
   generated executions transform into equivalent, valid, sequential ones
   (the computational content of Theorem 2). *)

let check = Alcotest.check
let bool = Alcotest.bool

open Ioa

let sendto ?(src = 0) ?(dst = 1) msg = Action.Sendto { src; dst; msg }
let sent ?(src = 0) ?(dst = 1) () = Action.Sent { src; dst }
let recvfrom ?(src = 0) ?(dst = 1) () = Action.Recvfrom { src; dst }
let received ?(src = 0) ?(dst = 1) msg = Action.Received { src; dst; msg }
let invoke proc op = Action.Invoke { proc; op }
let response proc op = Action.Response { proc; op }

(* ------------------------------------------------------------------ *)
(* Channel automaton                                                   *)
(* ------------------------------------------------------------------ *)

let test_channel_happy_path () =
  let acts = [ sendto 1; sent (); recvfrom (); received 1 ] in
  (match Channel.replay acts with
  | Ok s -> check bool "drained" true (s.Channel.queue = [] && not s.Channel.e && not s.Channel.r)
  | Error m -> Alcotest.fail m);
  check bool "well formed" true (Channel.well_formed acts = Ok ())

let test_channel_fifo () =
  let acts =
    [ sendto 1; sent (); sendto 2; sent (); recvfrom (); received 1; recvfrom (); received 2 ]
  in
  check bool "fifo ok" true (Result.is_ok (Channel.replay acts));
  let wrong =
    [ sendto 1; sent (); sendto 2; sent (); recvfrom (); received 2 ]
  in
  check bool "out of order rejected" true (Result.is_error (Channel.replay wrong))

let test_channel_preconditions () =
  check bool "sent without sendto" true
    (Result.is_error (Channel.replay [ sent () ]));
  check bool "received without recvfrom" true
    (Result.is_error (Channel.replay [ sendto 1; received 1 ]));
  check bool "received from empty" true
    (Result.is_error (Channel.replay [ recvfrom (); received 9 ]))

let test_channel_wellformedness () =
  check bool "double sendto" true
    (Result.is_error (Channel.well_formed [ sendto 1; sendto 2 ]));
  check bool "double recvfrom" true
    (Result.is_error (Channel.well_formed [ recvfrom (); recvfrom () ]))

(* ------------------------------------------------------------------ *)
(* Schedule validation                                                 *)
(* ------------------------------------------------------------------ *)

let simple_exec =
  [|
    invoke 0 0;
    response 0 0;
    sendto ~src:0 ~dst:1 7;
    sent ~src:0 ~dst:1 ();
    recvfrom ~src:0 ~dst:1 ();
    received ~src:0 ~dst:1 7;
    invoke 1 1;
    response 1 1;
  |]

let test_validate_ok () =
  match Schedule.validate simple_exec with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_validate_output_while_awaiting () =
  let bad = [| invoke 0 0; sendto ~src:0 ~dst:1 7; response 0 0 |] in
  check bool "rejected" true (Result.is_error (Schedule.validate bad))

let test_validate_double_invoke () =
  let bad = [| invoke 0 0; response 0 0; invoke 1 0 |] in
  check bool "op reused" true (Result.is_error (Schedule.validate bad))

let test_validate_unmatched_response () =
  let bad = [| response 0 3 |] in
  check bool "rejected" true (Result.is_error (Schedule.validate bad))

let test_projection_and_equivalence () =
  let p0 = Schedule.projection simple_exec ~proc:0 in
  check Alcotest.int "p0 actions" 4 (List.length p0);
  check bool "self equivalent" true (Schedule.equivalent simple_exec simple_exec);
  (* Swapping two different-process actions preserves equivalence
     (indices 3 and 4: P0's sent against P1's recvfrom). *)
  let swapped = Array.copy simple_exec in
  swapped.(3) <- simple_exec.(4);
  swapped.(4) <- simple_exec.(3);
  check bool "still equivalent" true (Schedule.equivalent simple_exec swapped)

let test_causal_message_edge () =
  let c = Schedule.causal simple_exec in
  (* sendto (idx 2) causally precedes received (idx 5) and hence P1's
     invocation (idx 6). *)
  check bool "msg edge" true (Rss_core.Causal.precedes c 2 5);
  check bool "transitive to invoke" true (Rss_core.Causal.precedes c 2 6);
  check bool "response before send" true (Rss_core.Causal.precedes c 1 2);
  check bool "cross without msg: none" false (Rss_core.Causal.precedes c 6 0)

(* ------------------------------------------------------------------ *)
(* Commutation lemmas                                                  *)
(* ------------------------------------------------------------------ *)

let test_swap_sent_received () =
  (* sendto m1; sent; sendto m2; sent — against recvfrom/received of m1:
     build adjacency of sent (send side) and recvfrom (recv side). *)
  let t =
    [|
      sendto 1; sent (); recvfrom (); received 1; sendto 2; sent (); recvfrom ();
      received 2;
    |]
  in
  (match Schedule.validate t with Ok () -> () | Error m -> Alcotest.fail m);
  (* indices 1 ("sent") and 2 ("recvfrom") commute (Lemma C.3). *)
  match Schedule.swap_adjacent t 1 with
  | Ok t' ->
    check bool "still valid" true (Result.is_ok (Schedule.validate t'));
    check bool "projections preserved" true (Schedule.equivalent t t')
  | Error m -> Alcotest.fail m

let test_swap_same_message_rejected () =
  let t = [| sendto 1; received 1 |] in
  (* Not even valid (no recvfrom), but the commutation refusal must trigger
     first on the m = m' side condition. *)
  check bool "same message blocked" true (Result.is_error (Schedule.swap_adjacent t 0))

let test_swap_sendto_received_different_messages () =
  let t =
    [| sendto 1; sent (); recvfrom (); sendto 2; received 1; sent (); recvfrom (); received 2 |]
  in
  (match Schedule.validate t with Ok () -> () | Error m -> Alcotest.fail m);
  (* indices 3 (sendto 2) and 4 (received 1): Lemma C.2. *)
  match Schedule.swap_adjacent t 3 with
  | Ok t' -> check bool "valid" true (Result.is_ok (Schedule.validate t'))
  | Error m -> Alcotest.fail m

let test_swap_non_channel_rejected () =
  let t = [| invoke 0 0; response 0 0 |] in
  check bool "rejected" true (Result.is_error (Schedule.swap_adjacent t 0))

(* ------------------------------------------------------------------ *)
(* Lemma C.5 transformation                                            *)
(* ------------------------------------------------------------------ *)

(* Fig. 2's essence: P0's operation op0 spans the whole execution; P1's op1
   completes inside it and S orders op1 first. *)
let fig2_like =
  [| invoke 0 0; invoke 1 1; response 1 1; response 0 0 |]

let test_transform_fig2 () =
  match Transform.lemma_c5 ~sched:fig2_like ~serialization:[ 1; 0 ] () with
  | Error m -> Alcotest.fail m
  | Ok r ->
    check bool "equivalent" true r.Transform.equivalent;
    check bool "valid" true r.Transform.valid;
    check bool "sequential" true r.Transform.sequential;
    check bool "op1 first" true
      (r.Transform.transformed.(0) = invoke 1 1
      && r.Transform.transformed.(1) = response 1 1)

let test_transform_respects_causality_premise () =
  (* A message from P0 (after op0) to P1 (before op1) forces op0 <_S op1;
     the contradictory serialization must be refused. *)
  let sched =
    [|
      invoke 0 0;
      response 0 0;
      sendto ~src:0 ~dst:1 5;
      sent ~src:0 ~dst:1 ();
      recvfrom ~src:0 ~dst:1 ();
      received ~src:0 ~dst:1 5;
      invoke 1 1;
      response 1 1;
    |]
  in
  (match Transform.lemma_c5 ~sched ~serialization:[ 1; 0 ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "contradictory serialization accepted");
  match Transform.lemma_c5 ~sched ~serialization:[ 0; 1 ] () with
  | Error m -> Alcotest.fail m
  | Ok r ->
    check bool "equivalent" true r.Transform.equivalent;
    check bool "valid" true r.Transform.valid;
    check bool "sequential" true r.Transform.sequential

let test_transform_moves_channel_traffic () =
  (* Channel actions causally tied to a late-serialized op move with it. *)
  let sched =
    [|
      invoke 1 1;
      (* op1 opens first *)
      invoke 0 0;
      response 0 0;
      sendto ~src:0 ~dst:2 9;
      sent ~src:0 ~dst:2 ();
      response 1 1;
      recvfrom ~src:0 ~dst:2 ();
      received ~src:0 ~dst:2 9;
    |]
  in
  (match Schedule.validate sched with Ok () -> () | Error m -> Alcotest.fail m);
  match Transform.lemma_c5 ~sched ~serialization:[ 1; 0 ] () with
  | Error m -> Alcotest.fail m
  | Ok r ->
    check bool "equivalent" true r.Transform.equivalent;
    check bool "valid" true r.Transform.valid;
    check bool "sequential" true r.Transform.sequential

(* Random executions: per-process scripts interleaved by a random scheduler,
   then transformed with the serialization induced by response order. *)
let gen_params = QCheck.Gen.(pair (int_range 2 4) (int_bound 100_000))

let build_random_exec (n_procs, seed) =
  let rng = Sim.Rng.make seed in
  let sched = ref [] in
  let next_op = ref 0 in
  (* Per-process pending intents; channel states for enabledness. *)
  let intents = Array.make n_procs [] in
  for p = 0 to n_procs - 1 do
    let script = ref [] in
    let len = 2 + Sim.Rng.int rng 4 in
    for _ = 1 to len do
      match Sim.Rng.int rng 3 with
      | 0 -> script := `Op :: !script
      | 1 ->
        let dst = Sim.Rng.int rng n_procs in
        if dst <> p then script := `Send dst :: !script
      | _ ->
        let src = Sim.Rng.int rng n_procs in
        if src <> p then script := `Recv src :: !script
    done;
    intents.(p) <- !script
  done;
  let queues : (int * int, int list) Hashtbl.t = Hashtbl.create 8 in
  let msg_counter = ref 0 in
  let guard = ref 0 in
  let continue = ref true in
  while !continue && !guard < 1000 do
    incr guard;
    let p = Sim.Rng.int rng n_procs in
    (match intents.(p) with
    | [] -> ()
    | `Op :: rest ->
      let op = !next_op in
      incr next_op;
      sched := response p op :: invoke p op :: !sched;
      intents.(p) <- rest
    | `Send dst :: rest ->
      incr msg_counter;
      let m = !msg_counter in
      sched := sent ~src:p ~dst () :: sendto ~src:p ~dst m :: !sched;
      let q = try Hashtbl.find queues (p, dst) with Not_found -> [] in
      Hashtbl.replace queues (p, dst) (q @ [ m ]);
      intents.(p) <- rest
    | `Recv src :: rest -> (
      match Hashtbl.find_opt queues (src, p) with
      | Some (m :: q) ->
        Hashtbl.replace queues (src, p) q;
        sched := received ~src ~dst:p m :: recvfrom ~src ~dst:p () :: !sched;
        intents.(p) <- rest
      | Some [] | None ->
        (* nothing to receive yet: skip the intent if nobody will send *)
        if Array.for_all (fun l -> not (List.exists (function `Send d -> d = p | _ -> false) l)) intents
        then intents.(p) <- rest))
    ;
    continue := Array.exists (fun l -> l <> []) intents
  done;
  Array.of_list (List.rev !sched)

let prop_transform_random_execs =
  QCheck.Test.make ~name:"lemma C.5 on random executions" ~count:120
    (QCheck.make gen_params) (fun params ->
      let sched = build_random_exec params in
      match Schedule.validate sched with
      | Error _ -> false (* generator must produce valid executions *)
      | Ok () ->
        (* Serialize complete ops by response order: always causally
           consistent. *)
        let serialization =
          Array.to_list sched
          |> List.filter_map (function Action.Response { op; _ } -> Some op | _ -> None)
        in
        (match Transform.lemma_c5 ~sched ~serialization () with
        | Error _ -> false
        | Ok r -> r.Transform.equivalent && r.Transform.valid && r.Transform.sequential))

(* Lemma C.5 as first written, over the transitive closure: the premise
   compares every causally ordered pair of system-facing actions, and M(i)
   is the largest S-position among i and everything causally before it.
   [None] when the premise fails, else the transformed schedule. *)
let reference_c5 ~sched ~serialization =
  let n = Array.length sched in
  let c = Schedule.causal sched in
  let pos = Hashtbl.create 16 in
  List.iteri (fun p op -> Hashtbl.replace pos op p) serialization;
  let unserialized = 2 * List.length serialization in
  let s_position = function
    | Action.Invoke { op; _ } ->
      Some (match Hashtbl.find_opt pos op with Some p -> 2 * p | None -> unserialized)
    | Action.Response { op; _ } ->
      Some (match Hashtbl.find_opt pos op with Some p -> (2 * p) + 1 | None -> unserialized + 1)
    | _ -> None
  in
  let own i = Option.value (s_position sched.(i)) ~default:(-1) in
  let premise = ref true and m = Array.init n own in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Rss_core.Causal.precedes c i j then begin
        (match (s_position sched.(i), s_position sched.(j)) with
        | Some pi, Some pj when pi > pj -> premise := false
        | _ -> ());
        m.(j) <- max m.(j) (own i)
      end
    done
  done;
  if not !premise then None
  else begin
    let order = Array.init n Fun.id in
    Array.stable_sort (fun a b -> compare m.(a) m.(b)) order;
    Some (Array.map (fun i -> sched.(i)) order)
  end

(* The linear pass against the reference, on the response-order
   serialization (always causal) and a shuffled one (often not), some ops
   left out; [Some ok] is the agreed verdict, [None] a disagreement. *)
let c5_against_reference (n_procs, seed) =
  let sched = build_random_exec (n_procs, seed) in
  let by_response =
    Array.to_list sched
    |> List.filter_map (function Action.Response { op; _ } -> Some op | _ -> None)
  in
  let rng = Sim.Rng.make (seed + 1) in
  let shuffled = Array.of_list by_response in
  Sim.Rng.shuffle rng shuffled;
  let shuffled =
    List.filteri (fun i _ -> i > 0 || Sim.Rng.bool rng 0.5) (Array.to_list shuffled)
  in
  List.map
    (fun serialization ->
      match (Transform.lemma_c5 ~sched ~serialization (), reference_c5 ~sched ~serialization) with
      | Ok r, Some t when r.Transform.transformed = t -> Some true
      | Error _, None -> Some false
      | _ -> None)
    [ by_response; shuffled ]

let prop_transform_matches_reference =
  QCheck.Test.make ~name:"lemma C.5 pass matches the closure" ~count:300
    (QCheck.make gen_params) (fun params ->
      List.for_all Option.is_some (c5_against_reference params))

let test_transform_reference_both_verdicts () =
  let ok = ref 0 and refused = ref 0 in
  for seed = 1 to 200 do
    List.iter
      (function
        | Some true -> incr ok
        | Some false -> incr refused
        | None -> Alcotest.failf "seed %d: pass and closure disagree" seed)
      (c5_against_reference (2 + (seed mod 3), seed))
  done;
  check bool (Fmt.str "both verdicts (%d Ok, %d Error)" !ok !refused) true
    (!ok > 50 && !refused > 50)

let prop_random_swaps_preserve_execution =
  QCheck.Test.make ~name:"commutation lemmas on random executions" ~count:120
    (QCheck.make QCheck.Gen.(pair gen_params (int_bound 50))) (fun (params, k) ->
      let sched = build_random_exec params in
      if Array.length sched < 2 then true
      else
        let k = k mod (Array.length sched - 1) in
        match Schedule.swap_adjacent sched k with
        | Error _ -> true (* not a commutable pair: fine *)
        | Ok sched' ->
          Result.is_ok (Schedule.validate sched') && Schedule.equivalent sched sched')

(* ------------------------------------------------------------------ *)
(* Appendix C.4 composition                                            *)
(* ------------------------------------------------------------------ *)

let cop ?(fence = false) id service proc inv =
  { Compose.o_id = id; o_service = service; o_proc = proc; o_inv = inv; o_is_fence = fence }

let test_compose_fenced_interleaving () =
  (* One process: write at service 0, fence it, write at service 1; another
     process reads service 1 then service 0. The construction must place
     service 0's write before service 1's for any observer past the fence. *)
  let ops =
    [
      cop 0 0 0 0;          (* P0: w at service 0 *)
      cop ~fence:true 1 0 0 10;  (* P0: fence at service 0 *)
      cop 2 1 0 20;         (* P0: w at service 1 *)
      cop 3 1 1 30;         (* P1: r at service 1 (sees the write) *)
      cop 4 0 1 40;         (* P1: r at service 0 *)
    ]
  in
  let orders = [ (0, [ 0; 1; 4 ]); (1, [ 2; 3 ]) ] in
  match Compose.compose ~ops ~orders with
  | Error m -> Alcotest.fail m
  | Ok order ->
    let pos x =
      let rec find i = function [] -> -1 | y :: r -> if y = x then i else find (i + 1) r in
      find 0 order
    in
    check bool "w0 before w1 (fence lifts it)" true (pos 0 < pos 2);
    check bool "w1 before r1" true (pos 2 < pos 3);
    check bool "r0 after w0" true (pos 4 > pos 0);
    check Alcotest.(list int) "permutation of non-fences" [ 0; 2; 3; 4 ]
      (List.sort compare order)

let test_compose_preserves_service_orders () =
  let ops =
    [ cop 0 0 0 0; cop 1 0 1 10; cop 2 1 0 20; cop 3 1 1 30 ]
  in
  let orders = [ (0, [ 0; 1 ]); (1, [ 3; 2 ]) ] in
  match Compose.compose ~ops ~orders with
  | Error m -> Alcotest.fail m
  | Ok order ->
    let pos x =
      let rec find i = function [] -> -1 | y :: r -> if y = x then i else find (i + 1) r in
      find 0 order
    in
    check bool "service 0 order kept" true (pos 0 < pos 1);
    check bool "service 1 order kept (3 before 2)" true (pos 3 < pos 2)

let test_compose_surfaces_the_cycle () =
  (* §4.1's fence-free cycle: each service serializes the stale read before
     its write; with no fences, the construction still yields *a* total
     order — but pairing it with the reads shows it cannot be legal, which
     is exactly why the theorem requires the fences. *)
  let ops =
    [
      cop 0 0 2 0;   (* w_x at service 0 *)
      cop 1 1 3 0;   (* w_y at service 1 *)
      cop 2 0 0 10;  (* P0 reads x=1   (after w_x in S_0) *)
      cop 3 1 0 30;  (* P0 reads y=nil (before w_y in S_1) *)
      cop 4 1 1 10;  (* P1 reads y=1   (after w_y in S_1) *)
      cop 5 0 1 30;  (* P1 reads x=nil (before w_x in S_0) *)
    ]
  in
  let orders = [ (0, [ 5; 0; 2 ]); (1, [ 3; 1; 4 ]) ] in
  match Compose.compose ~ops ~orders with
  | Error m -> Alcotest.fail m
  | Ok order ->
    (* Build the combined history and replay the composed order: the stale
       reads and the per-process orders cannot all hold. *)
    let module T = Rss_core.Txn_history in
    let txns =
      [|
        T.rw ~id:0 ~proc:2 ~writes:[ ("x", 1) ] ~inv:0 ~resp:1000 ();
        T.rw ~id:1 ~proc:3 ~writes:[ ("y", 1) ] ~inv:0 ~resp:1000 ();
        T.ro ~id:2 ~proc:0 ~reads:[ ("x", Some 1) ] ~inv:10 ~resp:20 ();
        T.ro ~id:3 ~proc:0 ~reads:[ ("y", None) ] ~inv:30 ~resp:40 ();
        T.ro ~id:4 ~proc:1 ~reads:[ ("y", Some 1) ] ~inv:10 ~resp:20 ();
        T.ro ~id:5 ~proc:1 ~reads:[ ("x", None) ] ~inv:30 ~resp:40 ();
      |]
    in
    let store : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let legal = ref true in
    let session_ok = ref true in
    let last_pos = Hashtbl.create 4 in
    List.iteri
      (fun i id ->
        let x = txns.(id) in
        (match Hashtbl.find_opt last_pos x.T.proc with
        | Some (prev_inv, _) when prev_inv > x.T.inv -> session_ok := false
        | _ -> ());
        Hashtbl.replace last_pos x.T.proc (x.T.inv, i);
        List.iter
          (fun (k, v) -> if Hashtbl.find_opt store k <> v then legal := false)
          x.T.reads;
        List.iter (fun (k, v) -> Hashtbl.replace store k v) x.T.writes)
      order;
    check bool "composed order cannot be both legal and session-ordered" false
      (!legal && !session_ok)

(* Random fence-disciplined executions over two per-service sequential
   stores: composing the per-service serializations must always yield a
   legal, session-respecting global order (Theorem C.14's conclusion). *)
let prop_compose_fenced_executions =
  QCheck.Test.make ~name:"C.14: composed fenced executions are consistent" ~count:150
    QCheck.(pair (int_range 2 4) (int_bound 100_000))
    (fun (n_procs, seed) ->
      let rng = Sim.Rng.make seed in
      let stores = [| Hashtbl.create 4; Hashtbl.create 4 |] in
      let orders = [| []; [] |] in
      let ops = ref [] in
      let reads = ref [] in
      let next_id = ref 0 in
      let next_val = ref 0 in
      let clock = ref 0 in
      let last_service = Array.make n_procs (-1) in
      (* Random interleaving of process steps; services execute ops
         instantly (each service is linearizable on its own). *)
      for _ = 1 to n_procs * 6 do
        let proc = Sim.Rng.int rng n_procs in
        let service = Sim.Rng.int rng 2 in
        incr clock;
        (* fence at the previous service before switching *)
        if last_service.(proc) >= 0 && last_service.(proc) <> service then begin
          let f = !next_id in
          incr next_id;
          ops :=
            { Compose.o_id = f; o_service = last_service.(proc); o_proc = proc;
              o_inv = !clock; o_is_fence = true }
            :: !ops;
          orders.(last_service.(proc)) <- f :: orders.(last_service.(proc))
        end;
        last_service.(proc) <- service;
        incr clock;
        let id = !next_id in
        incr next_id;
        let key = Fmt.str "s%dk%d" service (Sim.Rng.int rng 2) in
        if Sim.Rng.bool rng 0.5 then begin
          incr next_val;
          Hashtbl.replace stores.(service) key !next_val;
          ops :=
            { Compose.o_id = id; o_service = service; o_proc = proc;
              o_inv = !clock; o_is_fence = false }
            :: !ops;
          reads := (id, key, None, Some !next_val) :: !reads
        end
        else begin
          ops :=
            { Compose.o_id = id; o_service = service; o_proc = proc;
              o_inv = !clock; o_is_fence = false }
            :: !ops;
          reads := (id, key, Some (Hashtbl.find_opt stores.(service) key), None) :: !reads
        end;
        orders.(service) <- id :: orders.(service)
      done;
      let orders = [ (0, List.rev orders.(0)); (1, List.rev orders.(1)) ] in
      match Compose.compose ~ops:!ops ~orders with
      | Error _ -> false
      | Ok order ->
        (* Replay: every read sees the latest composed write; per-process
           invocation order respected. *)
        let semantics = Hashtbl.create 16 in
        List.iter (fun (id, k, r, w) -> Hashtbl.replace semantics id (k, r, w)) !reads;
        let store = Hashtbl.create 8 in
        let by_id = Hashtbl.create 16 in
        List.iter (fun (o : Compose.op) -> Hashtbl.replace by_id o.Compose.o_id o) !ops;
        let legal = ref true in
        let last_inv = Hashtbl.create 8 in
        List.iter
          (fun id ->
            let o = Hashtbl.find by_id id in
            (match Hashtbl.find_opt last_inv o.Compose.o_proc with
            | Some prev when prev > o.Compose.o_inv -> legal := false
            | _ -> ());
            Hashtbl.replace last_inv o.Compose.o_proc o.Compose.o_inv;
            match Hashtbl.find_opt semantics id with
            | None -> ()
            | Some (k, r, w) ->
              (match r with
              | Some expect -> if Hashtbl.find_opt store k <> expect then legal := false
              | None -> ());
              (match w with
              | Some v -> Hashtbl.replace store k v
              | None -> ()))
          order;
        !legal)

let test_compose_rejects_malformed () =
  let ops = [ cop 0 0 0 0 ] in
  check bool "op missing from order" true
    (Result.is_error (Compose.compose ~ops ~orders:[ (0, []) ]));
  check bool "unknown op in order" true
    (Result.is_error (Compose.compose ~ops ~orders:[ (0, [ 0; 9 ]) ]));
  check bool "wrong service" true
    (Result.is_error (Compose.compose ~ops ~orders:[ (1, [ 0 ]) ]))

let suites =
  [
    ( "ioa.channel",
      [
        Alcotest.test_case "happy path" `Quick test_channel_happy_path;
        Alcotest.test_case "fifo" `Quick test_channel_fifo;
        Alcotest.test_case "preconditions" `Quick test_channel_preconditions;
        Alcotest.test_case "well-formedness" `Quick test_channel_wellformedness;
      ] );
    ( "ioa.schedule",
      [
        Alcotest.test_case "validate ok" `Quick test_validate_ok;
        Alcotest.test_case "output while awaiting" `Quick
          test_validate_output_while_awaiting;
        Alcotest.test_case "double invoke" `Quick test_validate_double_invoke;
        Alcotest.test_case "unmatched response" `Quick test_validate_unmatched_response;
        Alcotest.test_case "projection/equivalence" `Quick
          test_projection_and_equivalence;
        Alcotest.test_case "causal message edges" `Quick test_causal_message_edge;
      ] );
    ( "ioa.commutation",
      [
        Alcotest.test_case "sent/recvfrom (C.3)" `Quick test_swap_sent_received;
        Alcotest.test_case "same message blocked" `Quick test_swap_same_message_rejected;
        Alcotest.test_case "sendto/received m!=m' (C.2)" `Quick
          test_swap_sendto_received_different_messages;
        Alcotest.test_case "non-channel rejected" `Quick test_swap_non_channel_rejected;
        QCheck_alcotest.to_alcotest prop_random_swaps_preserve_execution;
      ] );
    ( "ioa.compose",
      [
        Alcotest.test_case "fenced interleaving" `Quick test_compose_fenced_interleaving;
        Alcotest.test_case "service orders preserved" `Quick
          test_compose_preserves_service_orders;
        Alcotest.test_case "fence-free cycle surfaces" `Quick
          test_compose_surfaces_the_cycle;
        Alcotest.test_case "malformed inputs" `Quick test_compose_rejects_malformed;
        QCheck_alcotest.to_alcotest prop_compose_fenced_executions;
      ] );
    ( "ioa.transform",
      [
        Alcotest.test_case "Fig. 2 example" `Quick test_transform_fig2;
        Alcotest.test_case "causality premise enforced" `Quick
          test_transform_respects_causality_premise;
        Alcotest.test_case "channel traffic moves" `Quick
          test_transform_moves_channel_traffic;
        QCheck_alcotest.to_alcotest prop_transform_random_execs;
        QCheck_alcotest.to_alcotest prop_transform_matches_reference;
        Alcotest.test_case "pass vs closure, both verdicts" `Quick
          test_transform_reference_both_verdicts;
      ] );
  ]
