(* Tests for the history trace format: round-tripping, parse errors,
   checker agreement after a round trip, and the export path from a
   simulated run's recorded transactions. *)

module T = Rss_core.Txn_history

let check = Alcotest.check
let bool = Alcotest.bool

let sample =
  T.make ~msg_edges:[ (0, 2) ]
    [
      T.rw ~id:0 ~proc:0 ~writes:[ ("x", 1); ("y", 2) ] ~inv:0 ~resp:10 ();
      T.ro ~id:1 ~proc:1 ~reads:[ ("x", Some 1); ("z", None) ] ~inv:20 ~resp:30 ();
      T.rw ~id:2 ~proc:2 ~reads:[ ("y", Some 2) ] ~writes:[ ("z", 3) ] ~inv:40 ();
    ]

let test_roundtrip () =
  let s = Rss_core.Trace.to_string sample in
  match Rss_core.Trace.of_string s with
  | Error m -> Alcotest.fail m
  | Ok h ->
    check Alcotest.int "txn count" (T.n_txns sample) (T.n_txns h);
    for i = 0 to T.n_txns sample - 1 do
      let a = T.txn sample i and b = T.txn h i in
      check bool (Fmt.str "txn %d equal" i) true
        (a.T.proc = b.T.proc && a.T.inv = b.T.inv && a.T.resp = b.T.resp
        && List.sort compare a.T.reads = List.sort compare b.T.reads
        && List.sort compare a.T.writes = List.sort compare b.T.writes)
    done;
    check bool "edges preserved" true (h.T.msg_edges = [ (0, 2) ])

let test_checker_agreement_after_roundtrip () =
  let s = Rss_core.Trace.to_string sample in
  match Rss_core.Trace.of_string s with
  | Error m -> Alcotest.fail m
  | Ok h ->
    List.iter
      (fun m ->
        let before = Rss_core.Check_txn.check sample m in
        let after = Rss_core.Check_txn.check h m in
        let same =
          match (before, after) with
          | Rss_core.Check_txn.Sat _, Rss_core.Check_txn.Sat _
          | Rss_core.Check_txn.Unsat, Rss_core.Check_txn.Unsat
          | Rss_core.Check_txn.Unknown, Rss_core.Check_txn.Unknown ->
            true
          | _ -> false
        in
        check bool (Rss_core.Check_txn.model_name m ^ " verdict stable") true same)
      Rss_core.Check_txn.all_models

let test_comments_and_blanks () =
  let s = "# hello\n\n" ^ Rss_core.Trace.to_string sample ^ "\n# bye\n" in
  check bool "parses" true (Result.is_ok (Rss_core.Trace.of_string s))

let test_parse_errors () =
  let cases =
    [
      ("garbage line", "wobble\n");
      ("bad id", "txn id=x proc=0 inv=0 resp=- reads= writes=\n");
      ("bad edge", "edge 1\n");
      ("missing field", "txn id=0 proc=0 inv=0 reads= writes=\n");
      ("dangling edge target", "txn id=0 proc=0 inv=0 resp=5 reads= writes=a:1\nedge 0 9\n");
    ]
  in
  List.iter
    (fun (name, s) ->
      check bool name true (Result.is_error (Rss_core.Trace.of_string s)))
    cases

let test_save_load () =
  let path = Filename.temp_file "rss_trace" ".txt" in
  Rss_core.Trace.save ~path sample;
  (match Rss_core.Trace.load ~path with
  | Ok h -> check Alcotest.int "loaded" 3 (T.n_txns h)
  | Error m -> Alcotest.fail m);
  Sys.remove path

(* The export path of [rss_repro spanner --export]: a short Spanner-RSS
   run's records become a history that survives the text format and is
   still RSS-satisfiable. *)
let test_export_run_records () =
  let r =
    Harness.spanner_wan ~mode:Spanner.Config.Rss ~theta:0.75 ~n_keys:1000
      ~arrival_rate_per_sec:2.0 ~duration_s:2.0 ~seed:1 ()
  in
  let records =
    match r.Harness.Run.records with
    | Harness.Run.Spanner_txns a -> a
    | Harness.Run.Gryff_ops _ -> Alcotest.fail "spanner run recorded ops"
  in
  let n = Array.length records in
  check bool "a short run (1..20 txns)" true (n > 0 && n <= 20);
  let h =
    T.make (List.mapi (fun id w -> T.of_witness ~id w) (Array.to_list records))
  in
  match Rss_core.Trace.of_string (Rss_core.Trace.to_string h) with
  | Error m -> Alcotest.fail m
  | Ok h' -> (
    check Alcotest.int "txn count" n (T.n_txns h');
    match Rss_core.Check_txn.check h' Rss_core.Check_txn.Rss with
    | Rss_core.Check_txn.Sat _ -> ()
    | Rss_core.Check_txn.Unsat -> Alcotest.fail "exported run violates RSS"
    | Rss_core.Check_txn.Unknown -> Alcotest.fail "RSS search budget exhausted")

let test_of_witness_incomplete () =
  let w resp =
    {
      Rss_core.Witness.proc = 3;
      reads = [ ("x", Some 1) ];
      writes = [ ("y", 2) ];
      inv = 10;
      resp;
      ts = 7;
      rank = 0;
    }
  in
  let done_ = T.of_witness ~id:4 (w 20) in
  check Alcotest.int "id" 4 done_.T.id;
  check bool "fields carried" true
    (done_.T.proc = 3 && done_.T.inv = 10
    && done_.T.reads = [ ("x", Some 1) ]
    && done_.T.writes = [ ("y", 2) ]);
  check bool "complete" true (done_.T.resp = Some 20);
  check bool "unanswered is incomplete" true
    ((T.of_witness ~id:0 (w max_int)).T.resp = None)

(* Random histories round-trip bit-faithfully.*)
let prop_trace_roundtrip =
  QCheck.Test.make ~name:"random histories round-trip" ~count:150
    QCheck.(pair (int_range 1 12) (int_bound 100_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.make seed in
      let store = Hashtbl.create 4 in
      let next = ref 0 in
      let txns =
        List.init n (fun i ->
            let key = [| "a"; "b"; "c" |].(Sim.Rng.int rng 3) in
            let inv = i * 100 and resp = (i * 100) + 50 in
            let resp = if Sim.Rng.bool rng 0.9 || i < n - 1 then Some resp else None in
            if Sim.Rng.bool rng 0.5 then begin
              incr next;
              Hashtbl.replace store key !next;
              T.rw ~id:i ~proc:(Sim.Rng.int rng 3 * 100 + i) ~writes:[ (key, !next) ]
                ~inv ?resp ()
            end
            else
              T.ro ~id:i ~proc:(Sim.Rng.int rng 3 * 100 + i)
                ~reads:[ (key, Hashtbl.find_opt store key) ]
                ~inv ?resp ())
      in
      let h = T.make txns in
      match Rss_core.Trace.of_string (Rss_core.Trace.to_string h) with
      | Error _ -> false
      | Ok h' ->
        T.n_txns h = T.n_txns h'
        && List.for_all
             (fun i ->
               let a = T.txn h i and b = T.txn h' i in
               a.T.proc = b.T.proc && a.T.inv = b.T.inv && a.T.resp = b.T.resp
               && a.T.reads = b.T.reads && a.T.writes = b.T.writes)
             (List.init (T.n_txns h) Fun.id))

let suites =
  [
    ( "core.trace",
      [
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "checker agreement" `Quick
          test_checker_agreement_after_roundtrip;
        Alcotest.test_case "comments/blanks" `Quick test_comments_and_blanks;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "save/load" `Quick test_save_load;
        Alcotest.test_case "export of a run's records" `Quick
          test_export_run_records;
        Alcotest.test_case "incomplete witness" `Quick test_of_witness_incomplete;
        QCheck_alcotest.to_alcotest prop_trace_roundtrip;
      ] );
  ]
