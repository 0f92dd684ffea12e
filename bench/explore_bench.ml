(* Schedule-exploration smoke battery.

   Three sections, all seeded and machine-checkable:

     determinism -- the perturbation layer's contract: installing the
                    all-zero vector is byte-identical to never installing
                    it, a non-zero vector actually changes the schedule,
                    and replaying a perturbed input reproduces its digest.
     safe        -- a short coverage-guided search over correct
                    configurations; reports coverage and any (unexpected)
                    failures.
     control     -- the seeded-bug hunt: the same search pointed at the
                    Gryff client with the RSC dependency fence disabled
                    (unsafe_no_deps). The explorer must find a
                    Check_online Fail within budget, shrink it to a
                    cheaper input that still fails, serialize it as a
                    corpus file, and replay that file to the identical
                    verdict twice.

   Output is machine-readable JSON (default BENCH_explore.json):

     dune exec bench/explore.exe --                 # full budget, ~2 s
     dune exec bench/explore.exe -- --smoke         # CI budget, ~1 s
     dune exec bench/explore.exe -- --corpus DIR    # keep shrunk repros

   The module is not named Explore because that would shadow the explore
   library; bench/dune installs it as bench/explore.exe.

   Exit status 1 unless: all three determinism checks hold, the control
   bug is found, the shrunk repro is no costlier than the find and still
   fails, and its corpus file replays byte-identically twice. *)

let input_json (i : Explore.Exec.input) =
  let tie, jitter = Explore.Perturb.to_string i.Explore.Exec.perturb in
  let open Obs.Json in
  let int = Report.int in
  Obj
    [ ("protocol", Str (Chaos.Audit.protocol_name i.Explore.Exec.protocol));
      ("preset", Str (Chaos.Nemesis.preset_name i.Explore.Exec.preset));
      ("seed", int i.Explore.Exec.seed);
      ("nemesis_seed", int i.Explore.Exec.nemesis_seed);
      ("duration_ms", int i.Explore.Exec.duration_ms);
      ("slots", int i.Explore.Exec.n_slots); ("keys", int i.Explore.Exec.n_keys);
      ("batch_us", int i.Explore.Exec.batch_us);
      ("disk_rate_pct", int i.Explore.Exec.disk_rate_pct);
      ("unsafe", Bool i.Explore.Exec.unsafe); ("tie", Str tie);
      ("jitter", Str jitter); ("cost", int (Explore.Search.cost i)) ]

let () =
  let corpus_dir = ref None in
  let budget = ref None in
  let cli =
    Report.cli ~seeded:false
      ~extra:
        [
          ( "--corpus",
            Arg.String (fun d -> corpus_dir := Some d),
            "DIR keep shrunk repros in DIR" );
          ( "--budget",
            Arg.Int
              (fun n ->
                if n <= 0 then raise (Arg.Bad "--budget must be positive");
                budget := Some n),
            "N executions per search (default: 150/1500 smoke, 400/3000 full)" );
        ]
      "explore"
  in
  let smoke = cli.Report.smoke in
  let corpus_dir = !corpus_dir in
  let t0 = Sys.time () in

  (* --- determinism ------------------------------------------------- *)
  Printf.printf "determinism: perturbation-off identity + replay\n%!";
  let base_in =
    { (Explore.Exec.base Chaos.Audit.Gryff_rsc) with
      Explore.Exec.seed = 11;
      nemesis_seed = 7;
      duration_ms = 1_000 }
  in
  (* The raw audit run, no explorer involved: the reference digest. *)
  let raw_digest =
    let i = base_in in
    let duration_s = float_of_int i.Explore.Exec.duration_ms /. 1_000.0 in
    let run =
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
    Digest.to_hex (Digest.string (Harness.audit_trace run))
  in
  let off = Explore.Exec.run base_in in
  let off_identical =
    String.equal off.Explore.Exec.trace_digest raw_digest
  in
  let perturbed_in =
    { base_in with
      Explore.Exec.perturb =
        { Explore.Perturb.tie = [| 3; -5; 0; 7; -1; 2 |];
          jitter_us = [| 4_000; 0; 1_500; 800 |] } }
  in
  let p1 = Explore.Exec.run perturbed_in in
  let p2 = Explore.Exec.run perturbed_in in
  let perturb_changes =
    not (String.equal p1.Explore.Exec.trace_digest off.Explore.Exec.trace_digest)
  in
  let perturb_replay =
    String.equal p1.Explore.Exec.trace_digest p2.Explore.Exec.trace_digest
    && String.equal p1.Explore.Exec.signature p2.Explore.Exec.signature
  in
  Printf.printf
    "  off-identity %b, perturb-changes-schedule %b, perturb-replay %b\n%!"
    off_identical perturb_changes perturb_replay;

  (* --- safe sweep --------------------------------------------------- *)
  let safe_budget =
    Option.value !budget ~default:(if smoke then 150 else 400)
  in
  Printf.printf "safe sweep: budget %d\n%!" safe_budget;
  let safe_cfg =
    { (Explore.Search.default_config ()) with
      Explore.Search.protocols = [ Chaos.Audit.Spanner_rss; Chaos.Audit.Gryff_rsc ];
      presets =
        [ Chaos.Nemesis.Partition_heal; Chaos.Nemesis.Reorder_storm;
          Chaos.Nemesis.Asym_block ];
      budget = safe_budget;
      search_seed = 5;
      max_failures = 2;
      corpus_dir }
  in
  let safe = Explore.Search.run safe_cfg in
  Printf.printf "  %d execs, %d signatures, %d fails, %d unknowns\n%!"
    safe.Explore.Search.execs safe.Explore.Search.signatures
    (List.length safe.Explore.Search.failures)
    safe.Explore.Search.unknowns;

  (* --- seeded-bug control ------------------------------------------- *)
  let control_budget =
    Option.value !budget ~default:(if smoke then 1_500 else 3_000)
  in
  Printf.printf "control hunt: unsafe_no_deps, budget %d\n%!" control_budget;
  let metrics = Obs.Metrics.create () in
  let control_cfg =
    { (Explore.Search.control_config ()) with
      Explore.Search.budget = control_budget;
      search_seed = 1;
      shrink_budget = 400;
      corpus_dir =
        Some (Option.value corpus_dir ~default:"_explore_corpus");
      metrics = Some metrics }
  in
  let control = Explore.Search.run control_cfg in
  let found = control.Explore.Search.failures <> [] in
  let shrink_ok, replay_ok, corpus_file, failure =
    match control.Explore.Search.failures with
    | [] -> (false, false, "", Obs.Json.Null)
    | f :: _ ->
      let shrunk_fails =
        String.length f.Explore.Search.shrunk_verdict >= 4
        && String.equal (String.sub f.Explore.Search.shrunk_verdict 0 4) "fail"
      in
      let no_costlier =
        Explore.Search.cost f.Explore.Search.shrunk
        <= Explore.Search.cost f.Explore.Search.input
      in
      let replay_ok, path =
        match f.Explore.Search.corpus_file with
        | None -> (false, "")
        | Some path -> (
          match (Explore.Corpus.replay_file path, Explore.Corpus.replay_file path)
          with
          | Ok r1, Ok r2 ->
            ( r1.Explore.Corpus.matches && r2.Explore.Corpus.matches
              && String.equal
                   (Explore.Exec.verdict_string
                      r1.Explore.Corpus.outcome.Explore.Exec.verdict)
                   (Explore.Exec.verdict_string
                      r2.Explore.Corpus.outcome.Explore.Exec.verdict),
              path )
          | _ -> (false, path))
      in
      let failure =
        Obs.Json.Obj
          [ ("found_at", Report.int f.Explore.Search.found_at);
            ("verdict", Obs.Json.Str f.Explore.Search.verdict);
            ("shrink_execs", Report.int f.Explore.Search.shrink_execs);
            ("shrunk_verdict", Obs.Json.Str f.Explore.Search.shrunk_verdict);
            ("input", input_json f.Explore.Search.input);
            ("shrunk", input_json f.Explore.Search.shrunk) ]
      in
      (shrunk_fails && no_costlier, replay_ok, path, failure)
  in
  Printf.printf "  found %b (execs %d), shrink_ok %b, replay_ok %b\n%!" found
    control.Explore.Search.execs shrink_ok replay_ok;
  (match control.Explore.Search.failures with
  | f :: _ ->
    Printf.printf "  repro: %s\n  shrunk: %s\n%!"
      (Explore.Exec.describe f.Explore.Search.input)
      (Explore.Exec.describe f.Explore.Search.shrunk)
  | [] -> ());

  let determinism_ok = off_identical && perturb_changes && perturb_replay in
  let ok = determinism_ok && found && shrink_ok && replay_ok in
  let snap = Obs.Metrics.snapshot metrics in
  let mc name = Obs.Metrics.counter_value snap name in
  let cpu_s = Sys.time () -. t0 in
  Printf.printf "ok=%b, %.1fs cpu\n%!" ok cpu_s;
  let open Obs.Json in
  let bools fields = Obj (List.map (fun (k, v) -> (k, Bool v)) fields) in
  let ints fields = Obj (List.map (fun (k, v) -> (k, Report.int v)) fields) in
  let safe =
    let open Explore.Search in
    ints
      [ ("execs", safe.execs); ("signatures", safe.signatures);
        ("novel", safe.novel); ("fails", List.length safe.failures);
        ("unknowns", safe.unknowns) ]
  in
  let metrics =
    List.map (fun k -> (k, mc ("explore." ^ k)))
      [ "execs"; "novel"; "fails"; "shrink_execs"; "corpus_saved" ]
  in
  Report.write cli ~schema:"rss-repro/explore/v1" ~ok
    [ ( "determinism",
        bools
          [ ("perturb_off_identical", off_identical);
            ("perturb_changes_schedule", perturb_changes);
            ("perturb_replay_identical", perturb_replay) ] );
      ("safe", safe);
      ( "control",
        Obj
          [ ("execs", Report.int control.Explore.Search.execs);
            ("signatures", Report.int control.Explore.Search.signatures);
            ("found", Bool found); ("shrink_ok", Bool shrink_ok);
            ("replay_deterministic", Bool replay_ok);
            ("corpus_file", Str corpus_file); ("metrics", ints metrics);
            ("failure", failure) ] );
      ("cpu_s", Num cpu_s) ]
