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

     dune exec bench/explore.exe --                 # full budget, ~2 min
     dune exec bench/explore.exe -- --smoke         # CI budget, ~30 s
     dune exec bench/explore.exe -- --corpus DIR    # keep shrunk repros

   Exit status 1 unless: all three determinism checks hold, the control
   bug is found, the shrunk repro is no costlier than the find and still
   fails, and its corpus file replays byte-identically twice. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let input_json b (i : Explore.Exec.input) =
  let tie, jitter = Explore.Perturb.to_string i.Explore.Exec.perturb in
  Printf.bprintf b
    "{\"protocol\":\"%s\",\"preset\":\"%s\",\"seed\":%d,\"nemesis_seed\":%d,\
     \"duration_ms\":%d,\"slots\":%d,\"keys\":%d,\"batch_us\":%d,\
     \"disk_rate_pct\":%d,\"unsafe\":%b,\"tie\":\"%s\",\"jitter\":\"%s\",\
     \"cost\":%d}"
    (Chaos.Audit.protocol_name i.Explore.Exec.protocol)
    (Chaos.Nemesis.preset_name i.Explore.Exec.preset)
    i.Explore.Exec.seed i.Explore.Exec.nemesis_seed i.Explore.Exec.duration_ms
    i.Explore.Exec.n_slots i.Explore.Exec.n_keys i.Explore.Exec.batch_us
    i.Explore.Exec.disk_rate_pct i.Explore.Exec.unsafe (json_escape tie)
    (json_escape jitter)
    (Explore.Search.cost i)

let () =
  let smoke = ref false in
  let out = ref "BENCH_explore.json" in
  let corpus_dir = ref "" in
  let budget = ref 0 in
  let argv = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | "--corpus" :: v :: rest ->
      corpus_dir := v;
      parse rest
    | "--budget" :: v :: rest ->
      budget := int_of_string v;
      parse rest
    | a :: rest ->
      if String.length a > 0 && a.[0] = '-' then begin
        Printf.eprintf "unknown flag %s\n" a;
        exit 2
      end;
      parse rest
  in
  parse (List.tl argv);
  let corpus_dir =
    if String.length !corpus_dir > 0 then Some !corpus_dir else None
  in
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
    let schedule =
      Chaos.Audit.nemesis_schedule i.Explore.Exec.protocol
        i.Explore.Exec.preset ~duration_s ~seed:i.Explore.Exec.nemesis_seed
    in
    let run =
      Harness.audit
        ~env:
          Harness.Env.(
            default |> with_chaos schedule
            |> with_failover
                 (Chaos.Nemesis.requires_failover i.Explore.Exec.preset))
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
  let safe_budget = if !budget > 0 then !budget else if !smoke then 150 else 400 in
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
    if !budget > 0 then !budget else if !smoke then 1_500 else 3_000
  in
  Printf.printf "control hunt: unsafe_no_deps, budget %d\n%!" control_budget;
  let metrics = Obs.Metrics.create () in
  (* The hunt base is the shape empirically densest in no-deps anomalies:
     a single hot key (high conflict, small keyspace), read-mostly so the
     carstamp frontier advances slowly and a stranded write stays maximal
     long enough for one client to observe it twice, and a timeout short
     enough that slots stuck behind a one-way block respawn and re-read.
     The search still owns the seeds and perturbation vectors — at this
     budget the control falls within the first ~1000 executions for every
     search seed tried. *)
  let control_cfg =
    { (Explore.Search.default_config ()) with
      Explore.Search.protocols = [ Chaos.Audit.Gryff_rsc ];
      presets = [ Chaos.Nemesis.Asym_block ];
      budget = control_budget;
      search_seed = 1;
      base =
        (fun p ->
          { (Explore.Exec.base p) with
            Explore.Exec.duration_ms = 2_500;
            timeout_ms = 600;
            n_slots = 10;
            n_keys = 2;
            conflict_pct = 100;
            write_pct = 28;
            unsafe = true });
      max_failures = 1;
      shrink_budget = 400;
      corpus_dir =
        Some (Option.value corpus_dir ~default:"_explore_corpus");
      metrics = Some metrics }
  in
  let control = Explore.Search.run control_cfg in
  let found = control.Explore.Search.failures <> [] in
  let shrink_ok, replay_ok, corpus_file, failure_json =
    match control.Explore.Search.failures with
    | [] -> (false, false, "", "null")
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
      let b = Buffer.create 512 in
      Printf.bprintf b
        "{\"found_at\":%d,\"verdict\":\"%s\",\"shrink_execs\":%d,\
         \"shrunk_verdict\":\"%s\",\"input\":"
        f.Explore.Search.found_at
        (json_escape f.Explore.Search.verdict)
        f.Explore.Search.shrink_execs
        (json_escape f.Explore.Search.shrunk_verdict);
      input_json b f.Explore.Search.input;
      Printf.bprintf b ",\"shrunk\":";
      input_json b f.Explore.Search.shrunk;
      Printf.bprintf b "}";
      (shrunk_fails && no_costlier, replay_ok, path, Buffer.contents b)
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
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n  \"schema\": \"rss-repro/explore/v1\",\n";
  Printf.bprintf b "  \"smoke\": %b,\n" !smoke;
  Printf.bprintf b
    "  \"determinism\": {\"perturb_off_identical\": %b, \
     \"perturb_changes_schedule\": %b, \"perturb_replay_identical\": %b},\n"
    off_identical perturb_changes perturb_replay;
  Printf.bprintf b
    "  \"safe\": {\"execs\": %d, \"signatures\": %d, \"novel\": %d, \
     \"fails\": %d, \"unknowns\": %d},\n"
    safe.Explore.Search.execs safe.Explore.Search.signatures
    safe.Explore.Search.novel
    (List.length safe.Explore.Search.failures)
    safe.Explore.Search.unknowns;
  Printf.bprintf b
    "  \"control\": {\"execs\": %d, \"signatures\": %d, \"found\": %b, \
     \"shrink_ok\": %b, \"replay_deterministic\": %b, \"corpus_file\": \
     \"%s\", \"metrics\": {\"execs\": %d, \"novel\": %d, \"fails\": %d, \
     \"shrink_execs\": %d, \"corpus_saved\": %d}, \"failure\": %s},\n"
    control.Explore.Search.execs control.Explore.Search.signatures found
    shrink_ok replay_ok (json_escape corpus_file) (mc "explore.execs")
    (mc "explore.novel") (mc "explore.fails") (mc "explore.shrink_execs")
    (mc "explore.corpus_saved") failure_json;
  Printf.bprintf b "  \"cpu_s\": %.3f,\n" (Sys.time () -. t0);
  Printf.bprintf b "  \"ok\": %b\n}\n" ok;
  let oc = open_out !out in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "wrote %s (ok=%b, %.1fs cpu)\n%!" !out ok (Sys.time () -. t0);
  exit (if ok then 0 else 1)
