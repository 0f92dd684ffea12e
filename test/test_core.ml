(* Tests for the consistency-model core: histories, causality, checkers,
   witness verification, and libRSS. Several histories encode scenarios from
   the paper (Fig. 4, Table 1's I2, Appendix A's model separations). *)

module T = Rss_core.Txn_history
module CT = Rss_core.Check_txn
module W = Rss_core.Witness
module CO = Rss_core.Check_online
module CG = Rss_core.Check_graph

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let sat = function CT.Sat _ -> true | CT.Unsat -> false | CT.Unknown -> failwith "unknown"

let txn_sat h m = sat (CT.check h m)

(* The register models under the one-key embedding: linearizability,
   sequential consistency, RSC, VV-regularity and OSC(U). *)
let reg_models =
  CT.[ Strict_serializable; Process_ordered; Rss; Regular_vv; Osc_u ]

(* ------------------------------------------------------------------ *)
(* History construction and validation                                 *)
(* ------------------------------------------------------------------ *)

let test_history_validate_ok () =
  let h =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
        T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:20 ~resp:30 ();
      ]
  in
  check int "two ops" 2 (T.n_txns h)

let test_history_duplicate_write_rejected () =
  Alcotest.check_raises "duplicate value per key"
    (Invalid_argument "Txn_history.make: duplicate write of 1 to x") (fun () ->
      ignore
        (T.make
           [
             T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
             T.write ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:20 ~resp:30 ();
           ]))

let test_history_overlapping_process_rejected () =
  let bad () =
    ignore
      (T.make
         [
           T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:20 ();
           T.read ~id:1 ~proc:0 ~key:"x" ~inv:10 ~resp:30 ();
         ])
  in
  check bool "raises" true
    (match bad () with exception Invalid_argument _ -> true | () -> false)

let test_history_msg_edge_time_checked () =
  let bad () =
    ignore
      (T.make
         ~msg_edges:[ (1, 0) ]
         [
           T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
           T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:20 ~resp:30 ();
         ])
  in
  check bool "edge against time rejected" true
    (match bad () with exception Invalid_argument _ -> true | () -> false)

let test_history_incomplete_last_op_ok () =
  let h =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
        T.write ~id:1 ~proc:0 ~key:"y" ~value:2 ~inv:20 ();
      ]
  in
  check bool "incomplete tail op accepted" true (not (T.is_complete (T.txn h 1)))

let test_history_empty () =
  let h = T.make [] in
  check int "no txns" 0 (T.n_txns h);
  check bool "no edges" true (h.T.msg_edges = [])

(* A register history survives the trace format: a nil read, a write and
   an rmw come back as the same one-key txns with the same verdicts. *)
let test_register_trace_roundtrip () =
  let h =
    T.make ~msg_edges:[ (0, 2) ]
      [
        T.read ~id:0 ~proc:0 ~key:"x" ~inv:0 ~resp:10 ();
        T.write ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:5 ~resp:30 ();
        T.rmw ~id:2 ~proc:2 ~key:"x" ~observed:1 ~result:2 ~inv:20 ~resp:40 ();
      ]
  in
  match Rss_core.Trace.of_string (Rss_core.Trace.to_string h) with
  | Error m -> Alcotest.fail m
  | Ok h' ->
    check bool "same txns" true (h'.T.txns = h.T.txns);
    check bool "same edges" true (h'.T.msg_edges = h.T.msg_edges);
    List.iter
      (fun m ->
        check bool (CT.model_name m ^ " verdict") (txn_sat h m) (txn_sat h' m))
      CT.all_models

(* ------------------------------------------------------------------ *)
(* Causal                                                              *)
(* ------------------------------------------------------------------ *)

let test_causal_transitive () =
  let c = Rss_core.Causal.of_edges ~n:4 [ (0, 1); (1, 2) ] in
  check bool "direct" true (Rss_core.Causal.precedes c 0 1);
  check bool "transitive" true (Rss_core.Causal.precedes c 0 2);
  check bool "not reverse" false (Rss_core.Causal.precedes c 2 0);
  check bool "isolated" false (Rss_core.Causal.precedes c 0 3)

let test_causal_cycle_rejected () =
  check bool "cycle raises" true
    (match Rss_core.Causal.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_causal_of_history () =
  (* P0: w(x=1); P1: reads it, then writes y; msg edge to P2's read. *)
  let h =
    T.make
      ~msg_edges:[ (2, 3) ]
      [
        T.rw ~id:0 ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:10 ();
        T.ro ~id:1 ~proc:1 ~reads:[ ("x", Some 1) ] ~inv:20 ~resp:30 ();
        T.rw ~id:2 ~proc:1 ~writes:[ ("y", 2) ] ~inv:40 ~resp:50 ();
        T.ro ~id:3 ~proc:2 ~reads:[ ("y", Some 2) ] ~inv:60 ~resp:70 ();
      ]
  in
  let c = CT.causal h in
  check bool "reads-from" true (Rss_core.Causal.precedes c 0 1);
  check bool "process order" true (Rss_core.Causal.precedes c 1 2);
  check bool "msg edge" true (Rss_core.Causal.precedes c 2 3);
  check bool "transitive across kinds" true (Rss_core.Causal.precedes c 0 3);
  check bool "no rt-only edge" false (Rss_core.Causal.precedes c 1 0)

let prop_causal_closure_transitive =
  QCheck.Test.make ~name:"closure is transitive" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 15) (pair (int_range 0 7) (int_range 0 7)))
    (fun edges ->
      (* Only keep forward edges to avoid cycles. *)
      let edges = List.filter (fun (a, b) -> a < b) edges in
      let c = Rss_core.Causal.of_edges ~n:8 edges in
      let ok = ref true in
      for a = 0 to 7 do
        for b = 0 to 7 do
          for d = 0 to 7 do
            if
              Rss_core.Causal.precedes c a b
              && Rss_core.Causal.precedes c b d
              && not (Rss_core.Causal.precedes c a d)
            then ok := false
          done
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Register checker: basic behaviours                                  *)
(* ------------------------------------------------------------------ *)

let seq_wr =
  T.make
    [
      T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
      T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:20 ~resp:30 ();
    ]

let test_sequential_history_all_models () =
  List.iter
    (fun m ->
      check bool (CT.model_name m ^ " accepts sequential history") true
        (txn_sat seq_wr m))
    reg_models

let stale_read_after_write =
  (* w completes, then a read by another process misses it. *)
  T.make
    [
      T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
      T.read ~id:1 ~proc:1 ~key:"x" ~inv:20 ~resp:30 ();
    ]

let test_stale_read_model_split () =
  check bool "linearizability rejects" false
    (txn_sat stale_read_after_write Strict_serializable);
  check bool "RSC rejects (regular rt)" false (txn_sat stale_read_after_write Rss);
  check bool "VV-regular rejects" false (txn_sat stale_read_after_write Regular_vv);
  check bool "sequential allows" true (txn_sat stale_read_after_write Process_ordered);
  check bool "OSC(U) allows (Fig. 13 shape)" true (txn_sat stale_read_after_write Osc_u)

let concurrent_write_read_old =
  (* The paper's Fig. 4 / A3 shape: while w is in flight, r1 sees the new
     value; a causally-unrelated r2 later returns the old one. RSC allows
     it (only causally-later reads are constrained); linearizability does
     not. *)
  T.make
    [
      T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:100 ();
      T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:10 ~resp:20 ();
      T.read ~id:2 ~proc:2 ~key:"x" ~inv:30 ~resp:40 ();
    ]

let test_concurrent_write_read_old () =
  check bool "linearizability rejects" false
    (txn_sat concurrent_write_read_old Strict_serializable);
  check bool "RSC allows" true (txn_sat concurrent_write_read_old Rss);
  check bool "sequential allows" true (txn_sat concurrent_write_read_old Process_ordered)

let concurrent_write_read_old_causal =
  (* Same, but r1's observer tells r2's process (message edge): now RSC must
     reject — exactly the paper's "Alice sees Charlie's photo and calls Bob"
     anomaly A3 becoming a causal violation. *)
  T.make
    ~msg_edges:[ (1, 2) ]
    [
      T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:100 ();
      T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:10 ~resp:20 ();
      T.read ~id:2 ~proc:2 ~key:"x" ~inv:30 ~resp:40 ();
    ]

let test_concurrent_write_causal_read () =
  check bool "RSC rejects when causally related" false
    (txn_sat concurrent_write_read_old_causal Rss);
  check bool "VV-regular still allows (no causality)" true
    (txn_sat concurrent_write_read_old_causal Regular_vv);
  check bool "sequential still allows" true
    (txn_sat concurrent_write_read_old_causal Process_ordered)

let test_read_own_concurrent_write () =
  (* A read concurrent with a write may return either old or new value. *)
  let old_v =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:100 ();
        T.read ~id:1 ~proc:1 ~key:"x" ~inv:10 ~resp:20 ();
      ]
  in
  let new_v =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:100 ();
        T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:10 ~resp:20 ();
      ]
  in
  List.iter
    (fun m ->
      check bool (CT.model_name m ^ " old ok") true (txn_sat old_v m);
      check bool (CT.model_name m ^ " new ok") true (txn_sat new_v m))
    reg_models

let test_rmw_atomicity () =
  (* Two rmws both observing the same base value cannot both be serialized:
     one must see the other's result. *)
  let lost_update =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:10 ~inv:0 ~resp:5 ();
        T.rmw ~id:1 ~proc:1 ~key:"x" ~observed:10 ~result:11 ~inv:10 ~resp:20 ();
        T.rmw ~id:2 ~proc:2 ~key:"x" ~observed:10 ~result:12 ~inv:12 ~resp:22 ();
      ]
  in
  List.iter
    (fun m ->
      check bool (CT.model_name m ^ " rejects lost update") false
        (txn_sat lost_update m))
    reg_models;
  let chained =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:10 ~inv:0 ~resp:5 ();
        T.rmw ~id:1 ~proc:1 ~key:"x" ~observed:10 ~result:11 ~inv:10 ~resp:20 ();
        T.rmw ~id:2 ~proc:2 ~key:"x" ~observed:11 ~result:12 ~inv:12 ~resp:22 ();
      ]
  in
  check bool "chained rmws linearizable" true (txn_sat chained Strict_serializable)

let test_incomplete_write_observed () =
  (* An incomplete write whose value was read must be serialized. *)
  let h =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ();
        T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:10 ~resp:20 ();
        T.read ~id:2 ~proc:1 ~key:"x" ~value:1 ~inv:30 ~resp:40 ();
      ]
  in
  check bool "observed pending write ok" true (txn_sat h Strict_serializable);
  (* But flip-flopping back to nil after observing it is never allowed. *)
  let flip =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ();
        T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:10 ~resp:20 ();
        T.read ~id:2 ~proc:1 ~key:"x" ~inv:30 ~resp:40 ();
      ]
  in
  check bool "session flip-flop rejected even by sequential" false
    (txn_sat flip Process_ordered)

let test_incomplete_unobserved_dropped () =
  let h =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ();
        T.read ~id:1 ~proc:1 ~key:"x" ~inv:10 ~resp:20 ();
      ]
  in
  check bool "unobserved pending write may not take effect" true
    (txn_sat h Strict_serializable)

(* ------------------------------------------------------------------ *)
(* Appendix A separations (register case)                              *)
(* ------------------------------------------------------------------ *)

let fig14_shape =
  (* RSC allows; OSC(U) and MWR-RF forbid (r1 rt-precedes w1 yet must be
     serialized after it). w2 is concurrent with r1 and its value is seen
     early; w1 lands between; P4 then observes w1 before w2. *)
  T.make
    [
      T.write ~id:0 ~proc:2 ~key:"x" ~value:2 ~inv:5 ~resp:50 ();
      (* w2 *)
      T.read ~id:1 ~proc:0 ~key:"x" ~value:2 ~inv:0 ~resp:10 ();
      (* r1 *)
      T.write ~id:2 ~proc:1 ~key:"x" ~value:1 ~inv:20 ~resp:30 ();
      (* w1 *)
      T.read ~id:3 ~proc:3 ~key:"x" ~value:1 ~inv:32 ~resp:38 ();
      (* r2 *)
      T.read ~id:4 ~proc:3 ~key:"x" ~value:2 ~inv:42 ~resp:48 ();
      (* r3 *)
    ]

let test_fig14_rsc_vs_oscu () =
  check bool "RSC allows" true (txn_sat fig14_shape Rss);
  check bool "VV-regular allows" true (txn_sat fig14_shape Regular_vv);
  check bool "OSC(U) rejects" false (txn_sat fig14_shape Osc_u)

let test_rsc_between_lin_and_sc () =
  (* RSC sits strictly between: everything linearizable is RSC; stale
     concurrent reads separate RSC from linearizability
     (test_concurrent_write_read_old); causal misses separate SC from RSC
     (test_concurrent_write_causal_read). This test pins the lattice on the
     canonical histories. *)
  check bool "lin => rsc on seq history" true (txn_sat seq_wr Rss);
  check bool "rsc !=> lin" true
    (txn_sat concurrent_write_read_old Rss
    && not (txn_sat concurrent_write_read_old Strict_serializable));
  check bool "sc !=> rsc" true
    (txn_sat concurrent_write_read_old_causal Process_ordered
    && not (txn_sat concurrent_write_read_old_causal Rss))

(* ------------------------------------------------------------------ *)
(* Transactional checker                                               *)
(* ------------------------------------------------------------------ *)

let photo_i2_history =
  (* Table 1's I2: add-photo transaction, then an out-of-band enqueue tells a
     worker, whose read must see the photo. Encoded with a msg edge. *)
  T.make
    ~msg_edges:[ (0, 1) ]
    [
      T.rw ~id:0 ~proc:0 ~writes:[ ("photo:1", 77); ("album:a", 1) ] ~inv:0 ~resp:10 ();
      T.ro ~id:1 ~proc:1 ~reads:[ ("photo:1", None) ] ~inv:20 ~resp:30 ();
    ]

let test_photo_i2 () =
  check bool "strict ser rejects" false (txn_sat photo_i2_history Strict_serializable);
  check bool "RSS rejects (I2 holds)" false (txn_sat photo_i2_history Rss);
  check bool "PO-ser allows (I2 broken)" true (txn_sat photo_i2_history Process_ordered)

let fig4_history =
  (* Fig. 4: C_W commits to two shards; C_R1 observes the writes while the
     commit is in flight; C_R2 (causally unrelated) then reads old values.
     Strict serializability forbids C_R2's result; RSS allows it. *)
  T.make
    [
      T.rw ~id:0 ~proc:0 ~writes:[ ("a", 1); ("b", 2) ] ~inv:0 ~resp:100 ();
      T.ro ~id:1 ~proc:1 ~reads:[ ("a", Some 1); ("b", Some 2) ] ~inv:10 ~resp:20 ();
      T.ro ~id:2 ~proc:2 ~reads:[ ("a", None); ("b", None) ] ~inv:30 ~resp:40 ();
    ]

let test_fig4 () =
  check bool "strict ser rejects" false (txn_sat fig4_history Strict_serializable);
  check bool "RSS allows" true (txn_sat fig4_history Rss)

let fig9_shape =
  (* Appendix A / §8's CRDB counterexample: two causally-unrelated writes by
     different clients, ordered in real time; a concurrent RO sees only the
     second. CRDB permits it (non-conflicting writes carry no real-time
     guarantee); RSS does not. *)
  T.make
    [
      T.rw ~id:0 ~proc:0 ~writes:[ ("x1", 1) ] ~inv:0 ~resp:10 ();
      T.rw ~id:1 ~proc:1 ~writes:[ ("x2", 1) ] ~inv:20 ~resp:30 ();
      T.ro ~id:2 ~proc:2 ~reads:[ ("x1", None); ("x2", Some 1) ] ~inv:5 ~resp:35 ();
    ]

let test_fig9 () =
  check bool "CRDB allows" true (txn_sat fig9_shape Crdb);
  check bool "RSS rejects" false (txn_sat fig9_shape Rss);
  check bool "strict ser rejects" false (txn_sat fig9_shape Strict_serializable);
  check bool "PO-ser allows" true (txn_sat fig9_shape Process_ordered)

let test_crdb_ignores_causality () =
  (* CRDB lacks message-passing causality. Its conflicting-real-time rule
     does catch the simple I2 shape (the writer completed first), so the
     separation needs an in-flight writer observed early and relayed out of
     band — the A3 anomaly. RSS rejects it; CRDB accepts. *)
  check bool "CRDB catches completed-writer I2" false (txn_sat photo_i2_history Crdb);
  let a3 =
    T.make
      ~msg_edges:[ (1, 2) ]
      [
        T.rw ~id:0 ~proc:0 ~writes:[ ("photo:1", 77) ] ~inv:0 ~resp:100 ();
        T.ro ~id:1 ~proc:1 ~reads:[ ("photo:1", Some 77) ] ~inv:10 ~resp:20 ();
        T.ro ~id:2 ~proc:2 ~reads:[ ("photo:1", None) ] ~inv:30 ~resp:40 ();
      ]
  in
  check bool "CRDB allows relayed stale read" true (txn_sat a3 Crdb);
  check bool "RSS rejects relayed stale read" false (txn_sat a3 Rss)

let write_skew =
  (* Classic write skew: not equivalent to any sequential execution, so every
     model here (all of which demand a total order) rejects it. Snapshot
     isolation would allow it — see DESIGN.md. *)
  T.make
    [
      T.rw ~id:0 ~proc:0
        ~reads:[ ("x", None); ("y", None) ]
        ~writes:[ ("x", 1) ] ~inv:0 ~resp:20 ();
      T.rw ~id:1 ~proc:1
        ~reads:[ ("x", None); ("y", None) ]
        ~writes:[ ("y", 1) ] ~inv:5 ~resp:25 ();
    ]

let test_write_skew_rejected_by_all () =
  List.iter
    (fun m ->
      check bool (CT.model_name m ^ " rejects write skew") false (txn_sat write_skew m))
    CT.all_models

let test_ro_snapshot_consistency () =
  (* An RO transaction must reflect a single snapshot across keys, under any
     total-order model: seeing T1's write to a but T0's overwritten value of
     b is rejected. *)
  let h =
    T.make
      [
        T.rw ~id:0 ~proc:0 ~writes:[ ("a", 1); ("b", 1) ] ~inv:0 ~resp:10 ();
        T.rw ~id:1 ~proc:0 ~writes:[ ("a", 2); ("b", 2) ] ~inv:20 ~resp:30 ();
        T.ro ~id:2 ~proc:1 ~reads:[ ("a", Some 2); ("b", Some 1) ] ~inv:40 ~resp:50 ();
      ]
  in
  check bool "mixed snapshot rejected even by PO-ser" false
    (txn_sat h Process_ordered)

let test_rss_session_monotonicity () =
  (* Once a client observes a write, its later transactions must too
     (process order is causal). *)
  let h =
    T.make
      [
        T.rw ~id:0 ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:100 ();
        T.ro ~id:1 ~proc:1 ~reads:[ ("x", Some 1) ] ~inv:10 ~resp:20 ();
        T.ro ~id:2 ~proc:1 ~reads:[ ("x", None) ] ~inv:30 ~resp:40 ();
      ]
  in
  check bool "RSS rejects backwards session" false (txn_sat h Rss);
  check bool "VV-regular allows (no sessions)" true (txn_sat h Regular_vv)

let test_unknown_on_tiny_budget () =
  (* A deliberately wide history exhausts a 1-state budget. *)
  let txns =
    List.init 8 (fun i ->
        T.rw ~id:i ~proc:i ~writes:[ (Fmt.str "k%d" i, i) ] ~inv:(i * 2)
          ~resp:((i * 2) + 1) ())
  in
  let h = T.make txns in
  (match CT.check ~max_states:1 h CT.Process_ordered with
  | CT.Unknown -> ()
  | CT.Sat _ | CT.Unsat -> Alcotest.fail "expected Unknown");
  check bool "full budget solves it" true (txn_sat h Process_ordered)

let test_satisfies_surfaces_unknown () =
  (* Budget exhaustion is a value, not a crash — and never a wrong verdict:
     a tiny budget yields None where the full budget proves Some true. *)
  let txns =
    List.init 8 (fun i ->
        T.rw ~id:i ~proc:i ~writes:[ (Fmt.str "k%d" i, i) ] ~inv:(i * 2)
          ~resp:((i * 2) + 1) ())
  in
  let h = T.make txns in
  (match CT.satisfies ~max_states:1 h CT.Process_ordered with
  | None -> ()
  | Some ok -> Alcotest.failf "expected None on a 1-state budget, got %b" ok);
  check bool "full budget proves it" true
    (CT.satisfies h CT.Process_ordered = Some true);
  (* Same on a register history. *)
  let reg =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
        T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:20 ~resp:30 ();
      ]
  in
  check bool "register history full budget" true (CT.satisfies reg CT.Rss = Some true)

let test_witness_order_returned () =
  match CT.check fig4_history CT.Rss with
  | CT.Sat order ->
    (* The witness must be a permutation and place txn 2 before txn 0. *)
    check (Alcotest.list int) "permutation" [ 0; 1; 2 ] (List.sort compare order);
    let pos x = ref (-1) :: [] |> fun _ ->
      let rec find i = function
        | [] -> -1
        | y :: rest -> if y = x then i else find (i + 1) rest
      in
      find 0 order
    in
    check bool "old read before writer" true (pos 2 < pos 0)
  | CT.Unsat | CT.Unknown -> Alcotest.fail "expected Sat"

(* ------------------------------------------------------------------ *)
(* Property tests over generated histories                             *)
(* ------------------------------------------------------------------ *)

(* Generate a history by choosing a random serial execution over a tiny key
   space and then jittering invocation/response intervals so operations
   overlap. Reads return the value current at their serial position, so a
   legal total order always exists — but the jittered real-time/causal
   constraints may or may not be satisfiable, exercising the full lattice. *)
let gen_history =
  QCheck.Gen.(
    let* n = int_range 2 9 in
    let* seed = int_bound 1_000_000 in
    return (n, seed))

let build_history (n, seed) =
  let rng = Sim.Rng.make seed in
  let keys = [| "a"; "b" |] in
  let store = Hashtbl.create 4 in
  let next_val = ref 0 in
  let ops = ref [] in
  for i = 0 to n - 1 do
    let key = keys.(Sim.Rng.int rng 2) in
    let base = i * 100 in
    let inv = base - Sim.Rng.int rng 150 in
    let resp = base + Sim.Rng.int rng 150 in
    let inv = if inv < 0 then 0 else inv in
    let op =
      if Sim.Rng.bool rng 0.5 then begin
        incr next_val;
        Hashtbl.replace store key !next_val;
        T.write ~id:i ~proc:i ~key ~value:!next_val ~inv ~resp ()
      end
      else
        T.read ~id:i ~proc:i ~key ?value:(Hashtbl.find_opt store key) ~inv ~resp ()
    in
    ops := op :: !ops
  done;
  T.make (List.rev !ops)

let prop_model_lattice =
  QCheck.Test.make ~name:"model lattice: lin => rsc => {sc, vv-regular}" ~count:150
    (QCheck.make gen_history) (fun params ->
      let h = build_history params in
      let s m = txn_sat h m in
      (* Implications that must hold on any time-valid history. *)
      ((not (s CT.Strict_serializable)) || s CT.Rss)
      && ((not (s CT.Rss)) || s CT.Process_ordered)
      && ((not (s CT.Rss)) || s CT.Regular_vv)
      && ((not (s CT.Strict_serializable)) || s CT.Osc_u))

let prop_serial_position_order_always_sat =
  QCheck.Test.make ~name:"non-overlapping histories satisfy every model" ~count:100
    (QCheck.make gen_history) (fun (n, seed) ->
      (* Rebuild without jitter: strictly sequential real-time intervals. *)
      let rng = Sim.Rng.make seed in
      let keys = [| "a"; "b" |] in
      let store = Hashtbl.create 4 in
      let next_val = ref 0 in
      let ops = ref [] in
      for i = 0 to n - 1 do
        let key = keys.(Sim.Rng.int rng 2) in
        let inv = i * 100 and resp = (i * 100) + 50 in
        let op =
          if Sim.Rng.bool rng 0.5 then begin
            incr next_val;
            Hashtbl.replace store key !next_val;
            T.write ~id:i ~proc:i ~key ~value:!next_val ~inv ~resp ()
          end
          else
            T.read ~id:i ~proc:i ~key ?value:(Hashtbl.find_opt store key) ~inv ~resp ()
        in
        ops := op :: !ops
      done;
      let h = T.make (List.rev !ops) in
      List.for_all (fun m -> txn_sat h m) reg_models)

let prop_edges_only_constrain =
  QCheck.Test.make ~name:"adding a msg edge never makes an unsat history sat" ~count:100
    (QCheck.make gen_history) (fun params ->
      let h = build_history params in
      let n = T.n_txns h in
      if n < 2 then true
      else begin
        (* Pick a time-valid candidate edge; skip when none exists. *)
        let candidate = ref None in
        (try
           for a = 0 to n - 1 do
             for b = 0 to n - 1 do
               if a <> b && !candidate = None then
                 match (T.txn h a).T.resp with
                 | Some r when r <= (T.txn h b).T.inv -> candidate := Some (a, b); raise Exit
                 | _ -> ()
             done
           done
         with Exit -> ());
        match !candidate with
        | None -> true
        | Some (a, b) ->
          let h' = T.make ~msg_edges:[ (a, b) ] (Array.to_list h.T.txns) in
          (* Sat with the extra causal constraint implies Sat without it. *)
          (not (txn_sat h' CT.Rss)) || txn_sat h CT.Rss
      end)

let prop_witness_is_valid_order =
  QCheck.Test.make ~name:"returned witness respects constraint edges" ~count:100
    (QCheck.make gen_history) (fun params ->
      let h = build_history params in
      match CT.check h CT.Rss with
      | CT.Unsat | CT.Unknown -> true
      | CT.Sat order ->
        let pos = Hashtbl.create 16 in
        List.iteri (fun i id -> Hashtbl.replace pos id i) order;
        CT.constraint_edges h CT.Rss
        |> List.for_all (fun (a, b) ->
               match (Hashtbl.find_opt pos a, Hashtbl.find_opt pos b) with
               | Some pa, Some pb -> pa < pb
               | _ -> true (* dropped incomplete op *)))

(* ------------------------------------------------------------------ *)
(* Witness records: the claimed order, checked by Check_online          *)
(* ------------------------------------------------------------------ *)

let passes ~mode txns = CO.check ~mode txns = CO.Pass

let wtxn ?(proc = 0) ?(reads = []) ?(writes = []) ~inv ~resp ~ts () =
  {
    W.proc;
    reads;
    writes;
    inv;
    resp;
    ts;
    rank = W.mutator_rank ~writes;
  }

let test_witness_legal_run () =
  let txns =
    [|
      wtxn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:10 ~ts:5 ();
      wtxn ~proc:1 ~reads:[ ("x", Some 1) ] ~inv:20 ~resp:30 ~ts:25 ();
      wtxn ~proc:0 ~writes:[ ("x", 2) ] ~inv:40 ~resp:50 ~ts:45 ();
      wtxn ~proc:1 ~reads:[ ("x", Some 2) ] ~inv:60 ~resp:70 ~ts:65 ();
    |]
  in
  List.iter
    (fun mode ->
      match CO.check ~mode txns with
      | CO.Pass -> ()
      | CO.Fail m | CO.Unknown m -> Alcotest.fail m)
    [ `Strict; `Rss; `Sequential ]

let test_witness_bad_read () =
  let txns =
    [|
      wtxn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:10 ~ts:5 ();
      wtxn ~proc:1 ~reads:[ ("x", None) ] ~inv:20 ~resp:30 ~ts:25 ();
    |]
  in
  check bool "legality violation detected" false (passes ~mode:`Sequential txns)

let test_witness_session_violation () =
  let txns =
    [|
      wtxn ~proc:0 ~reads:[ ("x", None) ] ~inv:0 ~resp:10 ~ts:50 ();
      wtxn ~proc:0 ~reads:[ ("x", None) ] ~inv:20 ~resp:30 ~ts:40 ();
    |]
  in
  check bool "session inversion detected" false (passes ~mode:`Sequential txns)

let test_witness_rss_vs_strict_stale_ro () =
  (* An RO serialized before a mutator that rt-precedes it: strict mode must
     flag it; RSS mode must flag it only if they conflict. *)
  let no_conflict =
    [|
      wtxn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:10 ~ts:100 ();
      wtxn ~proc:1 ~reads:[ ("y", None) ] ~inv:20 ~resp:30 ~ts:50 ();
    |]
  in
  check bool "RSS ok without conflict" true (passes ~mode:`Rss no_conflict);
  check bool "strict flags rt inversion" false (passes ~mode:`Strict no_conflict);
  let conflict =
    [|
      wtxn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:10 ~ts:100 ();
      wtxn ~proc:1 ~reads:[ ("x", None) ] ~inv:20 ~resp:30 ~ts:50 ();
    |]
  in
  check bool "RSS flags conflicting stale read" false (passes ~mode:`Rss conflict)

let test_witness_rt_mutators () =
  let txns =
    [|
      wtxn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:10 ~ts:100 ();
      wtxn ~proc:1 ~writes:[ ("y", 1) ] ~inv:20 ~resp:30 ~ts:50 ();
    |]
  in
  check bool "mutator rt inversion flagged by RSS" false (passes ~mode:`Rss txns)

(* Out-of-band edges are graph edges: a read of nil that a message puts
   after the key's only write closes a cycle. *)
let test_witness_causal_edges () =
  let txns =
    [|
      wtxn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:10 ~ts:100 ();
      wtxn ~proc:1 ~reads:[ ("x", None) ] ~inv:20 ~resp:30 ~ts:50 ();
    |]
  in
  check bool "no edge, no cycle" true (Result.is_ok (CG.check ~mode:`Sequential txns));
  check (Alcotest.result Alcotest.reject Alcotest.string) "explicit edge flagged"
    (Error "cycle: txn 0 -msg-> txn 1 -rw-> txn 0")
    (CG.check ~edges:[ (0, 1) ] ~mode:`Sequential txns)

let test_witness_incomplete_resp () =
  (* resp = max_int: no real-time obligations, reads ignored? (reads of
     incomplete txns never responded — witness callers pass [] for them) *)
  let txns =
    [|
      wtxn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:max_int ~ts:100 ();
      wtxn ~proc:1 ~reads:[ ("x", None) ] ~inv:20 ~resp:30 ~ts:50 ();
    |]
  in
  check bool "incomplete mutator imposes nothing" true (passes ~mode:`Strict txns)

let test_witness_rank_breaks_ties () =
  (* RO sharing a mutator's timestamp reads its write: mutator must sort
     first. *)
  let txns =
    [|
      wtxn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:10 ~ts:42 ();
      wtxn ~proc:1 ~reads:[ ("x", Some 1) ] ~inv:20 ~resp:30 ~ts:42 ();
    |]
  in
  check bool "tie broken mutator-first" true (passes ~mode:`Rss txns)

(* Cross-validation: if the claimed-order check accepts an order for a
   history, the exact search checker must find the corresponding model
   satisfiable (the witness is a sufficient certificate). *)
let prop_witness_implies_search =
  QCheck.Test.make ~name:"witness Ok => search Sat" ~count:120
    (QCheck.make gen_history) (fun params ->
      let h = build_history params in
      let n = T.n_txns h in
      (* Claim the serialization "sort by invocation time": build witness
         records with ts = inv. *)
      let records =
        Array.init n (fun i ->
            let x = T.txn h i in
            {
              W.proc = x.T.proc;
              reads = x.T.reads;
              writes = x.T.writes;
              inv = x.T.inv;
              resp = (match x.T.resp with None -> max_int | Some r -> r);
              ts = x.T.inv;
              rank = W.mutator_rank ~writes:x.T.writes;
            })
      in
      let pairs =
        [ (`Strict, CT.Strict_serializable); (`Rss, CT.Rss); (`Sequential, CT.Process_ordered) ]
      in
      List.for_all
        (fun (mode, model) ->
          (not (passes ~mode records)) || txn_sat h model)
        pairs)

(* ------------------------------------------------------------------ *)
(* Check_graph: the model over a fixed write order                     *)
(* ------------------------------------------------------------------ *)

(* A transactional history as witness records. The claimed order [ts] is
   the first value written, else the first value read (0 for nil),
   readers ranked after writers: on register histories, whose values grow
   with each write, a version number like a carstamp. *)
let witness_of (h : T.t) =
  Array.map
    (fun (x : T.txn) ->
      {
        W.proc = x.T.proc;
        reads = x.T.reads;
        writes = x.T.writes;
        inv = x.T.inv;
        resp = Option.value x.T.resp ~default:max_int;
        ts =
          (match (x.T.writes, x.T.reads) with
          | (_, v) :: _, _ | [], (_, Some v) :: _ -> v
          | [], _ -> 0);
        rank = W.mutator_rank ~writes:x.T.writes;
      })
    h.T.txns

let graph_modes =
  [ (`Strict, CT.Strict_serializable); (`Rss, CT.Rss); (`Sequential, CT.Process_ordered) ]

let mode_name = function `Strict -> "strict" | `Rss -> "rss" | `Sequential -> "seq"

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* IRIW: the writes of x and y are still in flight; reader A sees x new,
   then y old; reader B sees y new, then x old. Each key alone has a
   valid order, so a per-key check passes; no total order exists. The
   cycle is po/rf/rw; under [`Strict] one reader always returns before
   the other's second read starts, so a shorter cycle takes an rt edge. *)
let iriw ~rng =
  let gap () = 1 + Sim.Rng.int rng 20 in
  let session proc id k1 k2 =
    let i1 = gap () in
    let r1 = i1 + gap () in
    let i2 = r1 + gap () in
    let r2 = i2 + gap () in
    [ T.read ~id ~proc ~key:k1 ~value:1 ~inv:i1 ~resp:r1 ();
      T.read ~id:(id + 1) ~proc ~key:k2 ~inv:i2 ~resp:r2 () ]
  in
  T.make
    ([ T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ();
       T.write ~id:1 ~proc:1 ~key:"y" ~value:1 ~inv:0 () ]
    @ session 2 2 "x" "y" @ session 3 4 "y" "x")

let test_graph_iriw () =
  let rng = Sim.Rng.make 31 in
  for _ = 1 to 50 do
    let h = iriw ~rng in
    let txns = witness_of h in
    List.iter
      (fun (mode, model) ->
        check bool "exhaustive search rejects IRIW" false (txn_sat h model);
        match CG.check ~mode txns with
        | Ok _ -> Alcotest.failf "%s: graph accepts IRIW" (mode_name mode)
        | Error m ->
          List.iter
            (fun k -> check bool (Fmt.str "%s: %s names %s" (mode_name mode) m k) true (contains m k))
            ([ "-rf->"; "-rw->" ] @ if mode = `Strict then [] else [ "-po->" ]);
          if mode <> `Strict then
            check bool (Fmt.str "%s: no rt edge in %s" (mode_name mode) m) false (contains m "-rt->"))
      graph_modes;
    (* Per key, with version timestamps, the claimed order is valid. *)
    List.iter
      (fun k ->
        let on_k = List.filter (fun x -> List.mem_assoc k x.W.reads || List.mem_assoc k x.W.writes) in
        check bool ("per-key check passes on " ^ k) true
          (passes ~mode:`Rss (Array.of_list (on_k (Array.to_list txns)))))
      [ "x"; "y" ]
  done

(* New/old inversion: reader 1 sees the new value, then reader 2, invoked
   after reader 1 returned, sees the old one. Regular while the write is in
   flight (RSC), never linearizable; once the write has completed before
   reader 2 starts, RSC rejects it too. Sequential consistency accepts
   both. *)
let test_graph_inversion () =
  let rng = Sim.Rng.make 37 in
  for _ = 1 to 50 do
    let gap () = 1 + Sim.Rng.int rng 20 in
    let i1 = gap () in
    let r1 = i1 + gap () in
    let i2 = r1 + gap () in
    let r2 = i2 + gap () in
    List.iter
      (fun in_flight ->
        let resp = if in_flight then None else Some (i2 - 1) in
        let h =
          T.make
            [ T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ?resp ();
              T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:i1 ~resp:r1 ();
              T.read ~id:2 ~proc:2 ~key:"x" ~inv:i2 ~resp:r2 () ]
        in
        let txns = witness_of h in
        List.iter
          (fun (mode, model) ->
            let expect = mode = `Sequential || (mode = `Rss && in_flight) in
            let label = Fmt.str "%s, write %s" (mode_name mode) (if in_flight then "in flight" else "done") in
            check bool (label ^ ": exhaustive") expect (txn_sat h model);
            check bool (label ^ ": graph") expect (Result.is_ok (CG.check ~mode txns)))
          graph_modes)
      [ true; false ]
  done

(* An rmw that writes back the value it read (a counter read through an
   rmw) leaves a run of writers of one value; a read of the value reads
   the run, and still precedes the next value. *)
let test_graph_write_back () =
  let txns =
    [|
      wtxn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:10 ~ts:1 ();
      wtxn ~proc:1 ~reads:[ ("x", Some 1) ] ~writes:[ ("x", 1) ] ~inv:20 ~resp:30 ~ts:2 ();
      wtxn ~proc:2 ~reads:[ ("x", Some 1) ] ~inv:40 ~resp:50 ~ts:2 ();
      wtxn ~proc:0 ~writes:[ ("x", 2) ] ~inv:60 ~resp:70 ~ts:3 ();
    |]
  in
  let stale = Array.append txns [| wtxn ~proc:2 ~reads:[ ("x", Some 1) ] ~inv:80 ~resp:90 ~ts:2 () |] in
  List.iter
    (fun (mode, _) ->
      check bool (mode_name mode ^ ": write-back passes") true (Result.is_ok (CG.check ~mode txns));
      check bool (mode_name mode ^ ": stale read of the run") (mode = `Sequential)
        (Result.is_ok (CG.check ~mode stale)))
    graph_modes

(* Random small histories in which each key is written at most once, so
   the write order is forced and the graph decides the model exactly.
   Processes run one op at a time; an incomplete op is its process's
   last. Reads pick nil or the key's value, written or not. *)
let gen_forced ~rng ~txn =
  let n_keys = 1 + Sim.Rng.int rng 4 and n_procs = 1 + Sim.Rng.int rng 3 in
  let key k = Printf.sprintf "k%d" k in
  let written = Array.make n_keys false in
  let clock = Array.make n_procs 0 and stopped = Array.make n_procs false in
  let read k = (key k, if Sim.Rng.bool rng 0.5 then Some (100 + k) else None) in
  let rec gen acc id =
    let live = List.filter (fun p -> not stopped.(p)) (List.init n_procs Fun.id) in
    if id = 2 + Sim.Rng.int rng 6 || live = [] then List.rev acc
    else begin
      let proc = List.nth live (Sim.Rng.int rng (List.length live)) in
      let inv = clock.(proc) + Sim.Rng.int rng 6 in
      let incomplete = Sim.Rng.bool rng 0.1 in
      let resp = if incomplete then None else Some (inv + 1 + Sim.Rng.int rng 12) in
      clock.(proc) <- Option.value resp ~default:inv;
      stopped.(proc) <- incomplete;
      let keys = List.filter (fun _ -> Sim.Rng.bool rng 0.5) (List.init n_keys Fun.id) in
      let keys = if keys = [] || not txn then [ Sim.Rng.int rng n_keys ] else keys in
      let writes =
        List.filter_map
          (fun k ->
            if written.(k) || Sim.Rng.bool rng 0.5 then None
            else (written.(k) <- true; Some (key k, 100 + k)))
          keys
      in
      let reads = List.filter_map (fun k -> if Sim.Rng.bool rng 0.6 then Some (read k) else None) keys in
      let reads = if reads = [] && writes = [] then [ read (List.hd keys) ] else reads in
      gen (T.rw ~id ~proc ~reads ~writes ~inv ?resp () :: acc) (id + 1)
    end
  in
  T.make (gen [] 0)

let test_graph_forced_order_exact () =
  let rng = Sim.Rng.make 41 in
  let sat = ref 0 and unsat = ref 0 in
  for seed = 1 to 600 do
    let txn = seed mod 2 = 0 in
    let h = gen_forced ~rng ~txn in
    let txns = witness_of h in
    List.iter
      (fun (mode, model) ->
        let exact = txn_sat h model and graph = CG.check ~mode txns in
        if exact then incr sat else incr unsat;
        if exact <> Result.is_ok graph then
          Alcotest.failf "seed %d %s: exact %b, graph %s:@.%a" seed (mode_name mode) exact
            (match graph with Ok _ -> "Ok" | Error m -> m)
            Fmt.(array ~sep:cut T.pp_txn) h.T.txns)
      graph_modes
  done;
  check bool (Fmt.str "both verdicts exercised (%d sat, %d unsat)" !sat !unsat) true
    (!sat > 300 && !unsat > 300)

(* With several writes per key the write order is the claimed one, so a
   graph [Ok] proves the model, and its order replays as a [Pass]. *)
let prop_graph_ok_implies_search =
  QCheck.Test.make ~name:"graph Ok => search Sat" ~count:300 (QCheck.make gen_history)
    (fun params ->
      let h = build_history params in
      let txns = witness_of h in
      List.for_all
        (fun (mode, model) ->
          match CG.check ~mode txns with
          | Error _ -> true
          | Ok order ->
            let replay = Array.copy txns in
            Array.iteri (fun p i -> replay.(i) <- { txns.(i) with W.ts = p }) order;
            txn_sat h model && passes ~mode replay)
        graph_modes)

(* ------------------------------------------------------------------ *)
(* MWR-Weak regularity (Appendix A, Shao et al.)                       *)
(* ------------------------------------------------------------------ *)

let mwr = Rss_core.Check_mwr.satisfies_weak

let test_mwr_basics () =
  check bool "sequential history ok" true (mwr seq_wr);
  check bool "stale read after completed write rejected" false
    (mwr stale_read_after_write);
  check bool "concurrent old/new reads ok" true (mwr concurrent_write_read_old)

let test_mwr_no_total_order_needed () =
  (* Fig. 15's essence: a session reads the new value then the old one while
     the write is still in flight. Every total-order model rejects it;
     MWR-Weak does not (each read has its own serialization). *)
  let flip =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ();
        T.read ~id:1 ~proc:1 ~key:"x" ~value:1 ~inv:10 ~resp:20 ();
        T.read ~id:2 ~proc:1 ~key:"x" ~inv:30 ~resp:40 ();
      ]
  in
  check bool "sequential rejects flip" false (txn_sat flip Process_ordered);
  check bool "MWR-Weak allows flip" true (mwr flip)

let test_mwr_overwritten_value () =
  let h =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
        T.write ~id:1 ~proc:1 ~key:"x" ~value:2 ~inv:20 ~resp:30 ();
        T.read ~id:2 ~proc:2 ~key:"x" ~value:1 ~inv:40 ~resp:50 ();
      ]
  in
  check bool "reading an overwritten value rejected" false (mwr h)

let test_mwr_concurrent_overwrite_ok () =
  (* If the second write is still concurrent with the read, the old value is
     fine: w2 is not forced between w1 and r. *)
  let h =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
        T.write ~id:1 ~proc:1 ~key:"x" ~value:2 ~inv:20 ~resp:100 ();
        T.read ~id:2 ~proc:2 ~key:"x" ~value:1 ~inv:40 ~resp:50 ();
      ]
  in
  check bool "concurrent overwrite allows old value" true (mwr h)

let test_mwr_unwritten_value () =
  let h =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
        T.read ~id:1 ~proc:1 ~key:"x" ~value:99 ~inv:20 ~resp:30 ();
      ]
  in
  check bool "unwritten value rejected" false (mwr h)

let test_mwr_rejects_multi_key_txn () =
  let h =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
        T.ro ~id:1 ~proc:1 ~reads:[ ("x", Some 1); ("y", None) ] ~inv:20 ~resp:30 ();
      ]
  in
  check (Alcotest.result Alcotest.unit Alcotest.string) "two-key txn named"
    (Error "txn 1 is not a one-key read, write or rmw")
    (Rss_core.Check_mwr.check_weak h)

let test_mwr_rmw_observation () =
  let bad =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
        T.rmw ~id:1 ~proc:1 ~key:"x" ~result:5 ~inv:20 ~resp:30 ();
      ]
  in
  (* rmw observed None despite a completed write: rejected. *)
  check bool "rmw nil observation rejected" false (mwr bad);
  let good =
    T.make
      [
        T.write ~id:0 ~proc:0 ~key:"x" ~value:1 ~inv:0 ~resp:10 ();
        T.rmw ~id:1 ~proc:1 ~key:"x" ~observed:1 ~result:5 ~inv:20 ~resp:30 ();
      ]
  in
  check bool "rmw chained observation ok" true (mwr good)

let prop_lin_implies_mwr =
  QCheck.Test.make ~name:"linearizable => MWR-Weak" ~count:150
    (QCheck.make gen_history) (fun params ->
      let h = build_history params in
      (not (txn_sat h Strict_serializable)) || mwr h)

let prop_vv_regular_implies_mwr =
  QCheck.Test.make ~name:"VV-regular => MWR-Weak" ~count:150
    (QCheck.make gen_history) (fun params ->
      let h = build_history params in
      (not (txn_sat h Regular_vv)) || mwr h)

let prop_witness_sequential_histories_pass =
  QCheck.Test.make ~name:"witness accepts any sequential history (all modes)" ~count:150
    QCheck.(pair (int_range 1 20) (int_bound 100_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.make seed in
      let store = Hashtbl.create 4 in
      let txns =
        Array.init n (fun i ->
            let key = [| "a"; "b"; "c" |].(Sim.Rng.int rng 3) in
            let inv = i * 100 and resp = (i * 100) + 50 in
            if Sim.Rng.bool rng 0.5 then begin
              Hashtbl.replace store key i;
              {
                W.proc = Sim.Rng.int rng 3;
                reads = [];
                writes = [ (key, i) ];
                inv;
                resp;
                ts = i;
                rank = 0;
              }
            end
            else
              {
                W.proc = Sim.Rng.int rng 3;
                reads = [ (key, Hashtbl.find_opt store key) ];
                writes = [];
                inv;
                resp;
                ts = i;
                rank = 1;
              })
      in
      List.for_all
        (fun mode -> passes ~mode txns)
        [ `Strict; `Rss; `Sequential ])

let prop_witness_detects_corruption =
  QCheck.Test.make ~name:"witness flags a corrupted read" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Sim.Rng.make seed in
      let w v i =
        { W.proc = 0; reads = []; writes = [ ("k", v) ]; inv = i * 100;
          resp = (i * 100) + 50; ts = i; rank = 0 }
      in
      let r v i =
        { W.proc = 1; reads = [ ("k", Some v) ]; writes = []; inv = i * 100;
          resp = (i * 100) + 50; ts = i; rank = 1 }
      in
      let good = [| w 10 0; r 10 1; w 20 2; r 20 3 |] in
      (* corrupt one read to a wrong (but existing) value *)
      let bad = Array.copy good in
      let victim = if Sim.Rng.bool rng 0.5 then 1 else 3 in
      let wrong = if victim = 1 then 20 else 10 in
      bad.(victim) <-
        { (good.(victim)) with W.reads = [ ("k", Some wrong) ] };
      passes ~mode:`Sequential good && not (passes ~mode:`Sequential bad))

(* ------------------------------------------------------------------ *)
(* libRSS                                                              *)
(* ------------------------------------------------------------------ *)

let test_librss_fence_on_switch () =
  let lib = Rss_core.Librss.create () in
  let fenced = ref [] in
  let fence name k =
    fenced := name :: !fenced;
    k ()
  in
  Rss_core.Librss.register_service lib ~name:"spanner" ~fence:(fence "spanner");
  Rss_core.Librss.register_service lib ~name:"queue" ~fence:(fence "queue");
  let ran = ref 0 in
  let go () = incr ran in
  Rss_core.Librss.start_transaction lib ~name:"spanner" go;
  check (Alcotest.list Alcotest.string) "first txn: no fence" [] !fenced;
  Rss_core.Librss.start_transaction lib ~name:"spanner" go;
  check (Alcotest.list Alcotest.string) "same service: no fence" [] !fenced;
  Rss_core.Librss.start_transaction lib ~name:"queue" go;
  check (Alcotest.list Alcotest.string) "switch: fences previous" [ "spanner" ] !fenced;
  Rss_core.Librss.start_transaction lib ~name:"spanner" go;
  check (Alcotest.list Alcotest.string) "switch back: fences queue"
    [ "queue"; "spanner" ] !fenced;
  check int "all txns ran" 4 !ran;
  check int "fence count" 2 (Rss_core.Librss.fences_issued lib)

let test_librss_unknown_service () =
  let lib = Rss_core.Librss.create () in
  check bool "unknown service raises" true
    (match Rss_core.Librss.start_transaction lib ~name:"nope" (fun () -> ()) with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_librss_duplicate_registration () =
  let lib = Rss_core.Librss.create () in
  Rss_core.Librss.register_service lib ~name:"s" ~fence:(fun k -> k ());
  check bool "duplicate raises" true
    (match Rss_core.Librss.register_service lib ~name:"s" ~fence:(fun k -> k ()) with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_librss_unregister () =
  let lib = Rss_core.Librss.create () in
  Rss_core.Librss.register_service lib ~name:"s" ~fence:(fun k -> k ());
  Rss_core.Librss.start_transaction lib ~name:"s" (fun () -> ());
  Rss_core.Librss.unregister_service lib ~name:"s";
  check bool "gone" false (Rss_core.Librss.is_registered lib ~name:"s");
  check bool "last cleared" true (Rss_core.Librss.last_service lib = None)

let test_librss_context_propagation () =
  let sender = Rss_core.Librss.create () in
  let receiver = Rss_core.Librss.create () in
  let fenced = ref [] in
  let fence name k =
    fenced := name :: !fenced;
    k ()
  in
  List.iter
    (fun lib ->
      Rss_core.Librss.register_service lib ~name:"a" ~fence:(fence "a");
      Rss_core.Librss.register_service lib ~name:"b" ~fence:(fence "b"))
    [ sender; receiver ];
  Rss_core.Librss.start_transaction sender ~name:"a" (fun () -> ());
  let ctx = Rss_core.Librss.capture sender in
  check bool "context carries service" true
    (Rss_core.Librss.context_service ctx = Some "a");
  Rss_core.Librss.absorb receiver ctx;
  Rss_core.Librss.start_transaction receiver ~name:"b" (fun () -> ());
  check (Alcotest.list Alcotest.string) "receiver fences sender's service"
    [ "a" ] !fenced

let test_librss_async_fence () =
  (* Fences complete asynchronously: the transaction body must not run until
     the fence's continuation fires. *)
  let e = Sim.Engine.create () in
  let lib = Rss_core.Librss.create () in
  Rss_core.Librss.register_service lib ~name:"a"
    ~fence:(fun k -> Sim.Engine.schedule e ~after:500 k);
  Rss_core.Librss.register_service lib ~name:"b" ~fence:(fun k -> k ());
  Rss_core.Librss.start_transaction lib ~name:"a" (fun () -> ());
  let started_at = ref (-1) in
  Rss_core.Librss.start_transaction lib ~name:"b" (fun () ->
      started_at := Sim.Engine.now e);
  check int "not yet" (-1) !started_at;
  Sim.Engine.run e;
  check int "ran after fence delay" 500 !started_at

let qt = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "core.history",
      [
        Alcotest.test_case "validate ok" `Quick test_history_validate_ok;
        Alcotest.test_case "duplicate write rejected" `Quick
          test_history_duplicate_write_rejected;
        Alcotest.test_case "overlapping process rejected" `Quick
          test_history_overlapping_process_rejected;
        Alcotest.test_case "msg edge vs time" `Quick test_history_msg_edge_time_checked;
        Alcotest.test_case "incomplete tail ok" `Quick test_history_incomplete_last_op_ok;
        Alcotest.test_case "empty history" `Quick test_history_empty;
        Alcotest.test_case "register trace round trip" `Quick
          test_register_trace_roundtrip;
      ] );
    ( "core.causal",
      [
        Alcotest.test_case "transitive closure" `Quick test_causal_transitive;
        Alcotest.test_case "cycle rejected" `Quick test_causal_cycle_rejected;
        Alcotest.test_case "from txn history" `Quick test_causal_of_history;
        qt prop_causal_closure_transitive;
      ] );
    ( "core.check_reg",
      [
        Alcotest.test_case "sequential history, all models" `Quick
          test_sequential_history_all_models;
        Alcotest.test_case "stale read splits the lattice" `Quick
          test_stale_read_model_split;
        Alcotest.test_case "concurrent write, old read (Fig. 4)" `Quick
          test_concurrent_write_read_old;
        Alcotest.test_case "causal edge forces new value (A3)" `Quick
          test_concurrent_write_causal_read;
        Alcotest.test_case "concurrent read both values ok" `Quick
          test_read_own_concurrent_write;
        Alcotest.test_case "rmw atomicity" `Quick test_rmw_atomicity;
        Alcotest.test_case "incomplete write observed" `Quick
          test_incomplete_write_observed;
        Alcotest.test_case "incomplete write unobserved" `Quick
          test_incomplete_unobserved_dropped;
        Alcotest.test_case "Fig. 14: RSC vs OSC(U)" `Quick test_fig14_rsc_vs_oscu;
        Alcotest.test_case "RSC strictly between lin and sc" `Quick
          test_rsc_between_lin_and_sc;
      ] );
    ( "core.check_txn",
      [
        Alcotest.test_case "photo I2 (composition)" `Quick test_photo_i2;
        Alcotest.test_case "Fig. 4 execution" `Quick test_fig4;
        Alcotest.test_case "Fig. 9: CRDB vs RSS" `Quick test_fig9;
        Alcotest.test_case "CRDB ignores causality" `Quick test_crdb_ignores_causality;
        Alcotest.test_case "write skew rejected" `Quick test_write_skew_rejected_by_all;
        Alcotest.test_case "RO snapshot consistency" `Quick test_ro_snapshot_consistency;
        Alcotest.test_case "session monotonicity" `Quick test_rss_session_monotonicity;
        Alcotest.test_case "budget exhaustion" `Quick test_unknown_on_tiny_budget;
        Alcotest.test_case "satisfies surfaces Unknown" `Quick
          test_satisfies_surfaces_unknown;
        Alcotest.test_case "witness order returned" `Quick test_witness_order_returned;
        qt prop_model_lattice;
        qt prop_serial_position_order_always_sat;
        qt prop_edges_only_constrain;
        qt prop_witness_is_valid_order;
      ] );
    ( "core.witness",
      [
        Alcotest.test_case "legal run" `Quick test_witness_legal_run;
        Alcotest.test_case "bad read" `Quick test_witness_bad_read;
        Alcotest.test_case "session violation" `Quick test_witness_session_violation;
        Alcotest.test_case "rss vs strict stale RO" `Quick
          test_witness_rss_vs_strict_stale_ro;
        Alcotest.test_case "mutator rt inversion" `Quick test_witness_rt_mutators;
        Alcotest.test_case "causal edges" `Quick test_witness_causal_edges;
        Alcotest.test_case "incomplete resp" `Quick test_witness_incomplete_resp;
        Alcotest.test_case "tie-break rank" `Quick test_witness_rank_breaks_ties;
        qt prop_witness_sequential_histories_pass;
        qt prop_witness_detects_corruption;
        qt prop_witness_implies_search;
      ] );
    ( "core.check_graph",
      [
        Alcotest.test_case "IRIW fails in every mode" `Quick test_graph_iriw;
        Alcotest.test_case "new/old inversion" `Quick test_graph_inversion;
        Alcotest.test_case "write-back rmw" `Quick test_graph_write_back;
        Alcotest.test_case "forced write order is exact" `Quick
          test_graph_forced_order_exact;
        qt prop_graph_ok_implies_search;
      ] );
    ( "core.check_mwr",
      [
        Alcotest.test_case "basics" `Quick test_mwr_basics;
        Alcotest.test_case "no total order needed (Fig. 15)" `Quick
          test_mwr_no_total_order_needed;
        Alcotest.test_case "overwritten value" `Quick test_mwr_overwritten_value;
        Alcotest.test_case "concurrent overwrite ok" `Quick
          test_mwr_concurrent_overwrite_ok;
        Alcotest.test_case "unwritten value" `Quick test_mwr_unwritten_value;
        Alcotest.test_case "rmw observations" `Quick test_mwr_rmw_observation;
        Alcotest.test_case "multi-key txn rejected" `Quick test_mwr_rejects_multi_key_txn;
        qt prop_lin_implies_mwr;
        qt prop_vv_regular_implies_mwr;
      ] );
    ( "core.librss",
      [
        Alcotest.test_case "fence on switch" `Quick test_librss_fence_on_switch;
        Alcotest.test_case "unknown service" `Quick test_librss_unknown_service;
        Alcotest.test_case "duplicate registration" `Quick
          test_librss_duplicate_registration;
        Alcotest.test_case "unregister" `Quick test_librss_unregister;
        Alcotest.test_case "context propagation" `Quick test_librss_context_propagation;
        Alcotest.test_case "async fence" `Quick test_librss_async_fence;
      ] );
  ]
