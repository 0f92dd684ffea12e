(* Schedule-space exploration: the perturbation layer's byte-identity
   contract, coverage-signature stability, the shrinker on the seeded-bug
   control, corpus round trips (including the checked-in repros), and
   Sim.Rpc retry determinism. *)

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool
let int = Alcotest.int
let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Perturbation layer                                                  *)
(* ------------------------------------------------------------------ *)

let small_input =
  {
    (Explore.Exec.base Chaos.Audit.Gryff_rsc) with
    Explore.Exec.seed = 11;
    nemesis_seed = 7;
    duration_ms = 800;
  }

(* The reference: what Harness.audit produces with the explorer entirely
   out of the loop (no [prepare] hook installed at all). *)
let raw_digest (i : Explore.Exec.input) =
  let duration_s = float_of_int i.Explore.Exec.duration_ms /. 1_000.0 in
  let r =
    Harness.audit
      ~env:
        (Harness.Env.of_preset
           ~disk_rate:(float_of_int i.Explore.Exec.disk_rate_pct /. 100.0)
           ~n_keys:i.Explore.Exec.n_keys i.Explore.Exec.protocol
           i.Explore.Exec.preset ~duration_s
           ~nemesis_seed:i.Explore.Exec.nemesis_seed)
      ~n_slots:i.Explore.Exec.n_slots ~n_keys:i.Explore.Exec.n_keys
      ~timeout_us:(i.Explore.Exec.timeout_ms * 1_000)
      ~conflict:(float_of_int i.Explore.Exec.conflict_pct /. 100.0)
      ~write_ratio:(float_of_int i.Explore.Exec.write_pct /. 100.0)
      i.Explore.Exec.protocol ~duration_s ~seed:i.Explore.Exec.seed ()
  in
  Digest.to_hex (Digest.string (Harness.audit_trace r))

let test_perturb_off_identity () =
  let reference = raw_digest small_input in
  let off = Explore.Exec.run small_input in
  check string "no-perturbation run is byte-identical to a raw audit run"
    reference off.Explore.Exec.trace_digest;
  (* Installing explicit all-zero vectors must also be invisible: the hooks
     fire but return 0 extra priority / 0 extra delay. *)
  let zeros =
    {
      small_input with
      Explore.Exec.perturb =
        { Explore.Perturb.tie = [| 0; 0; 0 |]; jitter_us = [| 0; 0 |] };
    }
  in
  let z = Explore.Exec.run zeros in
  check string "installed zero vectors are byte-identical too" reference
    z.Explore.Exec.trace_digest

let perturbed_input =
  {
    small_input with
    Explore.Exec.perturb =
      {
        Explore.Perturb.tie = [| 3; -5; 0; 7 |];
        jitter_us = [| 40_000; 0; 15_000 |];
      };
  }

let test_perturb_changes_and_replays () =
  let off = Explore.Exec.run small_input in
  let p1 = Explore.Exec.run perturbed_input in
  let p2 = Explore.Exec.run perturbed_input in
  check bool "a non-zero perturbation changes the schedule" true
    (not (String.equal p1.Explore.Exec.trace_digest off.Explore.Exec.trace_digest));
  check string "the perturbed schedule replays byte-identically"
    p1.Explore.Exec.trace_digest p2.Explore.Exec.trace_digest;
  check string "and its coverage signature is stable" p1.Explore.Exec.signature
    p2.Explore.Exec.signature

let test_perturb_string_round_trip () =
  let p =
    { Explore.Perturb.tie = [| 1; -64; 0; 9 |]; jitter_us = [| 0; 75_000; 3 |] }
  in
  let tie, jitter = Explore.Perturb.to_string p in
  (match Explore.Perturb.of_string ~tie ~jitter with
  | Ok q -> check bool "round trip" true (Explore.Perturb.equal p q)
  | Error m -> Alcotest.failf "round trip failed: %s" m);
  let tie0, jitter0 = Explore.Perturb.to_string Explore.Perturb.none in
  check string "empty tie prints as '-'" "-" tie0;
  check string "empty jitter prints as '-'" "-" jitter0;
  (match Explore.Perturb.of_string ~tie:"-" ~jitter:"-" with
  | Ok q -> check bool "'-' parses to none" true (Explore.Perturb.is_none q)
  | Error m -> Alcotest.failf "'-' failed to parse: %s" m);
  let n =
    Explore.Perturb.normalize
      { Explore.Perturb.tie = [| 900; 0; 0 |]; jitter_us = [| 1_000_000; 0 |] }
  in
  check int "tie clamped to max_tie" Explore.Perturb.max_tie n.Explore.Perturb.tie.(0);
  check int "jitter clamped to max_jitter_us" Explore.Perturb.max_jitter_us
    n.Explore.Perturb.jitter_us.(0);
  check int "trailing zeros trimmed" 1 (Array.length n.Explore.Perturb.tie)

let test_signature_stable () =
  let o1 = Explore.Exec.run small_input in
  let o2 = Explore.Exec.run small_input in
  let o3 = Explore.Exec.run small_input in
  check string "signature repeat 1" o1.Explore.Exec.signature
    o2.Explore.Exec.signature;
  check string "signature repeat 2" o1.Explore.Exec.signature
    o3.Explore.Exec.signature

(* ------------------------------------------------------------------ *)
(* Corpus: the checked-in repros must replay byte-for-byte             *)
(* ------------------------------------------------------------------ *)

(* Staged by the test stanza's deps. [dune runtest] runs the binary in
   test/ (so the staged copy is at ../corpus); [dune exec] from the
   project root sees the source tree's corpus/ directly. *)
let corpus_dir =
  if Sys.file_exists "corpus" && Sys.is_directory "corpus" then "corpus"
  else Filename.concat ".." "corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> String.equal (Filename.extension f) ".corpus")
  |> List.sort compare
  |> List.map (Filename.concat corpus_dir)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || at (i + 1))
  in
  at 0

let test_corpus_replays () =
  let files = corpus_files () in
  check bool "at least three checked-in repros" true (List.length files >= 3);
  check bool "the base timeout is not described" false
    (contains (Explore.Exec.describe small_input) " timeout=");
  List.iter
    (fun path ->
      match Explore.Corpus.replay_file path with
      | Error m -> Alcotest.failf "%s: %s" path m
      | Ok r ->
        check bool (path ^ " replays to its expected verdict") true
          r.Explore.Corpus.matches;
        (* The offline oracle, across keys, agrees: the safe repro passes
           and the unsafe ones fail on a cycle. *)
        let i = r.Explore.Corpus.entry.Explore.Corpus.input in
        (match r.Explore.Corpus.outcome.Explore.Exec.run.Harness.Run.records with
        | Harness.Run.Gryff_ops a -> (
          let mode =
            match i.Explore.Exec.protocol with
            | Chaos.Audit.Gryff_lin -> Gryff.Config.Lin
            | _ -> Gryff.Config.Rsc
          in
          match (Gryff.Cluster.check_records ~mode a, r.Explore.Corpus.entry.Explore.Corpus.expected) with
          | Ok (), "pass" -> ()
          | Error m, "pass" -> Alcotest.failf "%s: cross-key violation: %s" path m
          | Error m, _ ->
            check bool (path ^ ": the oracle names a cycle") true
              (String.starts_with ~prefix:"cycle: " m)
          | Ok (), _ -> Alcotest.failf "%s: the oracle passes a failing run" path)
        | Harness.Run.Spanner_txns _ -> ());
        (* The one-line summary names the timeout exactly when it differs
           from the base input's (the slow-node repro runs with 600 ms). *)
        let i = r.Explore.Corpus.entry.Explore.Corpus.input in
        let timeout = Fmt.str " timeout=%dms " i.Explore.Exec.timeout_ms in
        check bool (path ^ " describes a non-default timeout")
          (i.Explore.Exec.timeout_ms
          <> (Explore.Exec.base i.Explore.Exec.protocol).Explore.Exec.timeout_ms)
          (contains (Explore.Exec.describe i) timeout);
        (* Determinism: a second replay reproduces the same verdict string
           byte-for-byte, not merely the same verdict class. *)
        let again = Explore.Corpus.replay r.Explore.Corpus.entry in
        check string (path ^ " replays deterministically")
          (Explore.Exec.verdict_string
             r.Explore.Corpus.outcome.Explore.Exec.verdict)
          (Explore.Exec.verdict_string
             again.Explore.Corpus.outcome.Explore.Exec.verdict))
    (corpus_files ())

(* Both verdict classes of a checked run are represented: the shrunk
   control (Fail) and its safe twin (Pass). *)
let test_corpus_covers_verdict_classes () =
  let expected_of path =
    match Explore.Corpus.load path with
    | Ok e -> e.Explore.Corpus.expected
    | Error m -> Alcotest.failf "%s: %s" path m
  in
  let expecteds = List.map expected_of (corpus_files ()) in
  let has prefix =
    List.exists
      (fun e ->
        String.length e >= String.length prefix
        && String.equal (String.sub e 0 (String.length prefix)) prefix)
      expecteds
  in
  check bool "a failing repro is checked in" true (has "fail:");
  check bool "a passing repro is checked in" true (has "pass")

(* A checked-in file is named by its content, as the search names the
   repros it saves: a stale name means the file was edited by hand. *)
let test_corpus_names_are_canonical () =
  List.iter
    (fun path ->
      match Explore.Corpus.load path with
      | Ok e ->
        check string (path ^ " is named by its content") (Explore.Corpus.file_name e)
          (Filename.basename path)
      | Error m -> Alcotest.failf "%s: %s" path m)
    (corpus_files ())

let test_corpus_rejects_garbage () =
  (match Explore.Corpus.of_string "not-a-corpus\nprotocol gryff-rsc\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header accepted");
  match Explore.Corpus.of_string "rss-explore/corpus/v1\nprotocol gryff-rsc\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields accepted"

(* ------------------------------------------------------------------ *)
(* Shrinker on the seeded-bug control                                  *)
(* ------------------------------------------------------------------ *)

let control_entry () =
  let failing =
    List.filter
      (fun path ->
        match Explore.Corpus.load path with
        | Ok e ->
          String.length e.Explore.Corpus.expected >= 5
          && String.equal (String.sub e.Explore.Corpus.expected 0 5) "fail:"
        | Error _ -> false)
      (corpus_files ())
  in
  match failing with
  | path :: _ -> (
    match Explore.Corpus.load path with
    | Ok e -> e
    | Error m -> Alcotest.failf "%s: %s" path m)
  | [] -> Alcotest.fail "no failing repro in corpus/"

let test_shrinker_minimal_still_failing () =
  let e = control_entry () in
  (* Inflate the repro a little so the shrinker has work to do. *)
  let inflated =
    {
      e.Explore.Corpus.input with
      Explore.Exec.n_slots = e.Explore.Corpus.input.Explore.Exec.n_slots;
      perturb =
        {
          e.Explore.Corpus.input.Explore.Exec.perturb with
          Explore.Perturb.tie = [| 0; 0; 0; 0 |];
        };
    }
  in
  let o = Explore.Exec.run inflated in
  check bool "inflated control still fails" true
    (Explore.Exec.is_fail o.Explore.Exec.verdict);
  let shrunk, verdict, execs =
    Explore.Search.shrink ~budget:150 inflated
      (Explore.Exec.verdict_string o.Explore.Exec.verdict)
  in
  check bool "shrunk repro still fails" true
    (String.length verdict >= 5 && String.equal (String.sub verdict 0 5) "fail:");
  check bool "shrinking never increases cost" true
    (Explore.Search.cost shrunk <= Explore.Search.cost inflated);
  check bool "all-zero tie padding was dropped" true
    (Array.length shrunk.Explore.Exec.perturb.Explore.Perturb.tie = 0);
  check bool "shrink spent executions" true (execs > 0);
  (* The minimized repro replays: the exact property the corpus relies on. *)
  let again = Explore.Exec.run shrunk in
  check string "shrunk repro replays to the same verdict" verdict
    (Explore.Exec.verdict_string again.Explore.Exec.verdict)

(* A small safe search is deterministic end to end and finds nothing. *)
let test_search_deterministic_and_clean () =
  let cfg =
    {
      (Explore.Search.default_config ()) with
      Explore.Search.protocols = [ Chaos.Audit.Gryff_rsc ];
      presets = [ Chaos.Nemesis.Asym_block ];
      budget = 25;
      search_seed = 42;
    }
  in
  let r1 = Explore.Search.run cfg in
  let r2 = Explore.Search.run cfg in
  check int "searches execute the full budget" 25 r1.Explore.Search.execs;
  check int "signature count is reproducible" r1.Explore.Search.signatures
    r2.Explore.Search.signatures;
  check int "novelty count is reproducible" r1.Explore.Search.novel
    r2.Explore.Search.novel;
  check int "safe configurations never fail" 0
    (List.length r1.Explore.Search.failures)

(* ------------------------------------------------------------------ *)
(* Satellite: Sim.Rpc retry/backoff properties                         *)
(* ------------------------------------------------------------------ *)

(* Drive a call whose attempts never succeed and record when each attempt
   fires; [first_succeeds] schedules a success for the first attempt. With
   [budget] (tokens, never refilled within the run) or [expires], the call
   carries a flow with that budget and expiry drops armed. *)
let rpc_attempt_times ?budget ?expires ~seed ~timeout_us ~max_backoff_us
    ~max_attempts ~first_succeeds () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let rpc =
    Sim.Rpc.create engine ~rng ~timeout_us ~max_backoff_us ~max_attempts ()
  in
  let flow =
    if budget = None && expires = None then None
    else begin
      let net =
        Sim.Net.create engine ~rng:(Sim.Rng.make 0) ~rtt_ms:[| [| 0.1 |] |] ()
      in
      let f = Sim.Flow.create net in
      Sim.Flow.arm f ~stations:[] ~admission:None ~drop_expired:true
        ~hedge_us:0
        ~budget:
          (Option.map
             (fun capacity ->
               Sim.Flow.Budget.create engine ~capacity
                 ~refill_period_us:max_int)
             budget);
      Some f
    end
  in
  let times = ref [] in
  let result = ref `Pending in
  Sim.Rpc.call ?flow ?expires rpc
    ~attempt:(fun ~attempt ~ok ->
      times := (attempt, Sim.Engine.now engine) :: !times;
      if first_succeeds && attempt = 1 then
        Sim.Engine.schedule engine ~after:1_000 (fun () -> ok ()))
    ~on_result:(fun r ->
      result := (match r with Some () -> `Ok | None -> `Exhausted));
  Sim.Engine.run engine;
  (List.rev !times, !result, rng)

let prop_rpc_no_draw_without_retry =
  QCheck.Test.make ~name:"rpc: first-attempt success draws no randomness"
    ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let _, result, rng =
        rpc_attempt_times ~seed ~timeout_us:50_000 ~max_backoff_us:400_000
          ~max_attempts:5 ~first_succeeds:true ()
      in
      (* The helper's stream must be untouched: it yields exactly what a
         fresh stream at the same seed yields. *)
      let fresh = Sim.Rng.make seed in
      result = `Ok
      && Sim.Rng.int rng 1_000_000 = Sim.Rng.int fresh 1_000_000
      && Sim.Rng.int rng 1_000_000 = Sim.Rng.int fresh 1_000_000)

let prop_rpc_backoff_capped =
  QCheck.Test.make
    ~name:"rpc: retry gaps follow the capped doubling backoff (+ <=25% jitter)"
    ~count:50
    QCheck.(triple (int_range 0 10_000) (int_range 10_000 200_000)
              (int_range 2 6))
    (fun (seed, timeout_us, max_attempts) ->
      let max_backoff_us = 4 * timeout_us in
      let times, result, _ =
        rpc_attempt_times ~seed ~timeout_us ~max_backoff_us ~max_attempts
          ~first_succeeds:false ()
      in
      result = `Exhausted
      && List.length times = max_attempts
      &&
      let rec gaps_ok = function
        | (n1, t1) :: ((_, t2) :: _ as rest) ->
          let backoff = min max_backoff_us (timeout_us lsl min (n1 - 1) 16) in
          let gap = t2 - t1 in
          (* Jitter is non-negative and strictly under backoff/4; the
             deadline itself never exceeds the cap. *)
          gap >= backoff
          && gap < backoff + max 1 (backoff / 4)
          && backoff <= max_backoff_us
          && gaps_ok rest
        | _ -> true
      in
      gaps_ok times)

let prop_rpc_schedule_deterministic =
  QCheck.Test.make ~name:"rpc: seeded retransmission schedule is deterministic"
    ~count:50
    QCheck.(pair (int_range 0 10_000) (int_range 2 6))
    (fun (seed, max_attempts) ->
      let run () =
        rpc_attempt_times ~seed ~timeout_us:30_000 ~max_backoff_us:200_000
          ~max_attempts ~first_succeeds:false ()
      in
      let t1, r1, _ = run () and t2, r2, _ = run () in
      r1 = `Exhausted && r2 = `Exhausted && t1 = t2)

(* A re-attempt Flow refuses is never sent, so it draws no jitter: with a
   budget of [k] tokens the helper's stream ends where it ends after [k]
   retries cut by the attempt cap, and a call whose first re-attempt is
   already past its expiry leaves the stream untouched. *)
let prop_rpc_no_draw_when_refused =
  QCheck.Test.make ~name:"rpc: a re-attempt Flow refuses draws no randomness"
    ~count:50
    QCheck.(triple (int_range 0 10_000) (int_range 10_000 200_000)
              (int_range 1 4))
    (fun (seed, timeout_us, k) ->
      let max_backoff_us = 4 * timeout_us in
      let next rng = Sim.Rng.int rng 1_000_000 in
      let run ?budget ?expires max_attempts =
        rpc_attempt_times ?budget ?expires ~seed ~timeout_us ~max_backoff_us
          ~max_attempts ~first_succeeds:false ()
      in
      let refused_times, refused, refused_rng = run ~budget:k 8 in
      let capped_times, _, capped_rng = run (k + 1) in
      let late_times, late, late_rng = run ~expires:timeout_us 8 in
      let fresh = Sim.Rng.make seed in
      refused = `Exhausted && late = `Exhausted
      && refused_times = capped_times
      && next refused_rng = next capped_rng
      && List.length late_times = 1
      && next late_rng = next fresh)

(* Every reply is slow: replies land after the last attempt has timed out
   and exhausted the call. The caller must see the [None] alone, never a
   [Some] after it. *)
let test_rpc_reply_after_exhaustion () =
  let engine = Sim.Engine.create () in
  let rpc =
    Sim.Rpc.create engine ~rng:(Sim.Rng.make 3) ~timeout_us:1_000
      ~max_backoff_us:1_000 ~max_attempts:2 ()
  in
  let results = ref [] in
  Sim.Rpc.call rpc
    ~attempt:(fun ~attempt ~ok ->
      Sim.Engine.schedule engine ~after:5_000 (fun () -> ok attempt))
    ~on_result:(fun r -> results := r :: !results);
  Sim.Engine.run engine;
  check int "exhausted once" 1 (Sim.Rpc.exhausted rpc);
  check bool "only the None" true (!results = [ None ])

(* A call answered in time leaves no timer in the queue: the reply's
   handler sees an empty queue, whether the reply lands later (first on
   the first attempt, then on a retransmission) or synchronously inside
   [attempt]. *)
let test_rpc_settle_cancels_timeout () =
  let engine = Sim.Engine.create () in
  let rpc =
    Sim.Rpc.create engine ~rng:(Sim.Rng.make 3) ~timeout_us:1_000
      ~max_backoff_us:4_000 ~max_attempts:4 ()
  in
  let pending_at_result = ref [] in
  let call ~answer_from ~delay =
    Sim.Rpc.call rpc
      ~attempt:(fun ~attempt ~ok ->
        if attempt >= answer_from then
          if delay = 0 then ok attempt
          else Sim.Engine.schedule engine ~after:delay (fun () -> ok attempt))
      ~on_result:(fun r ->
        check bool "answered" true (r <> None);
        pending_at_result := Sim.Engine.pending engine :: !pending_at_result)
  in
  call ~answer_from:1 ~delay:500;
  Sim.Engine.run engine;
  check int "late reply: the reply is the only event" 1
    (Sim.Engine.executed engine);
  check int "late reply: the clock ends at the reply" 500
    (Sim.Engine.now engine);
  call ~answer_from:2 ~delay:500;
  Sim.Engine.run engine;
  check int "retransmission: one timeout and the reply" 3
    (Sim.Engine.executed engine);
  call ~answer_from:1 ~delay:0;
  check int "synchronous reply: nothing pending" 0 (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  check int "synchronous reply: nothing ran" 3 (Sim.Engine.executed engine);
  check (Alcotest.list int) "an empty queue at each result" [ 0; 0; 0 ]
    !pending_at_result;
  check int "one retry" 1 (Sim.Rpc.retries rpc)

let suites =
  [
    ( "explore.perturb",
      [
        Alcotest.test_case "perturbation off is byte-identical" `Quick
          test_perturb_off_identity;
        Alcotest.test_case "perturbation changes and replays" `Quick
          test_perturb_changes_and_replays;
        Alcotest.test_case "vector string round trip" `Quick
          test_perturb_string_round_trip;
        Alcotest.test_case "coverage signature is stable" `Quick
          test_signature_stable;
      ] );
    ( "explore.corpus",
      [
        Alcotest.test_case "checked-in repros replay byte-for-byte" `Quick
          test_corpus_replays;
        Alcotest.test_case "all verdict classes are covered" `Quick
          test_corpus_covers_verdict_classes;
        Alcotest.test_case "bad corpus files are rejected" `Quick
          test_corpus_rejects_garbage;
        Alcotest.test_case "file names match their content" `Quick
          test_corpus_names_are_canonical;
      ] );
    ( "explore.search",
      [
        Alcotest.test_case "shrinker keeps the control failing" `Quick
          test_shrinker_minimal_still_failing;
        Alcotest.test_case "safe search is deterministic and clean" `Quick
          test_search_deterministic_and_clean;
      ] );
    ( "explore.rpc",
      [
        qt prop_rpc_no_draw_without_retry;
        qt prop_rpc_backoff_capped;
        qt prop_rpc_schedule_deterministic;
        qt prop_rpc_no_draw_when_refused;
        Alcotest.test_case "rpc: a reply after exhaustion is absorbed" `Quick
          test_rpc_reply_after_exhaustion;
        Alcotest.test_case "rpc: settling cancels the timeout" `Quick
          test_rpc_settle_cancels_timeout;
      ] );
  ]
