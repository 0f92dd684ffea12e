(* Command-line driver: run ad-hoc simulations of the four systems with
   tunable workload parameters and print latency/consistency summaries.
   The paper's figures live in bench/main.exe; this tool is for exploration.

   Examples:
     rss_repro spanner --mode rss --theta 0.9 --duration 30
     rss_repro gryff --mode lin --conflict 0.25 --write-ratio 0.3
     rss_repro spanner --mode rss --duration 2 --rate 10 --trace-out run.json
     rss_repro check --demo fig4 *)

open Cmdliner

(* Shared --trace-out plumbing: when the flag is given, install a live
   span sink for the run and export it as Chrome trace_event JSON. *)
let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record a structured span trace of the run and write it as \
           Chrome trace_event JSON (load in chrome://tracing or \
           ui.perfetto.dev). Tracing is passive: the traced run follows \
           the exact seeded schedule of an untraced one.")

let tracer_for = function
  | None -> Obs.Trace.disabled
  | Some _ -> Obs.Trace.create ()

(* Shared --check plumbing: pick how the run's history is verified. *)
let check_arg =
  Arg.(
    value
    & opt (enum [ ("online", `Online); ("none", `No_check) ]) `Online
    & info [ "check" ] ~docv:"MODE"
        ~doc:
          "History verification: $(b,online) (the default) verifies the \
           recorded history with the incremental checker once the run \
           drains, $(b,none) skips verification. Never affects the \
           simulated schedule.")

let save_trace tracer = function
  | None -> ()
  | Some path ->
    Obs.Trace.save_chrome tracer ~path;
    Fmt.pr "trace: %d spans written to %s@." (Obs.Trace.n_spans tracer) path

(* Shared --batch-* plumbing: group commit / adaptive message batching on
   the run's simulated network. Off by default — an unbatched run is
   byte-identical to pre-batching builds. *)
let batch_us_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "batch-us" ] ~docv:"US"
        ~doc:
          "Enable link-level message batching: buffer messages per directed \
           site pair and flush each buffer as one envelope after $(docv) \
           microseconds (or earlier; see $(b,--batch-max) and \
           $(b,--batch-adaptive)). Replication appends and acks coalesced \
           into one envelope are the simulator's group commit. Off by \
           default; batch.* counters appear in the metrics table when any \
           envelope flushed.")

let batch_max_arg =
  Arg.(
    value & opt int 32
    & info [ "batch-max" ] ~docv:"N"
        ~doc:
          "Flush a link's buffer immediately once it holds $(docv) messages, \
           without waiting for the $(b,--batch-us) deadline (requires \
           $(b,--batch-us)).")

let batch_adaptive_arg =
  Arg.(
    value & flag
    & info [ "batch-adaptive" ]
        ~doc:
          "Adaptive flush policy: send immediately while the link is idle \
           and fall back to the $(b,--batch-us) deadline only under load \
           (requires $(b,--batch-us)).")

(* Shared --deadline-us plumbing: a client deadline on every operation.
   None (the default) keeps each driver's historical behavior. *)
let deadline_us_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-us" ] ~docv:"US"
        ~doc:
          "Put a client deadline of $(docv) microseconds on every \
           operation. Operations past their deadline abandon instead of \
           retrying forever; under the chaos subcommand this bounds how \
           long a client slot waits before retiring its session. Off by \
           default (the spanner driver still arms its 10 s failover \
           fallback when crash recovery is on).")

let deadline_us_of = function
  | Some d when d <= 0 ->
    Fmt.epr "error: --deadline-us must be positive@.";
    exit 1
  | d -> d

let batching_of ~batch_us ~batch_max ~batch_adaptive =
  match batch_us with
  | None ->
    if batch_adaptive then
      (Fmt.epr "error: --batch-adaptive requires --batch-us@."; exit 1);
    None
  | Some us ->
    if us <= 0 then (Fmt.epr "error: --batch-us must be positive@."; exit 1);
    if batch_max <= 0 then
      (Fmt.epr "error: --batch-max must be positive@."; exit 1);
    Some { Sim.Net.batch_us = us; batch_max; adaptive = batch_adaptive }

(* The run flags spanner and gryff share: --trace-out, --check, the
   --batch-* knobs and --deadline-us, validated and turned into the run's
   environment. The environment carries the tracer that [report] saves. *)
type run_flags = { env : Harness.Env.t; trace_out : string option }

let run_flags =
  let make trace_out check batch_us batch_max batch_adaptive deadline_us =
    let env =
      Harness.Env.(
        default
        |> with_trace (tracer_for trace_out)
        |> with_check check
        |> with_batching (batching_of ~batch_us ~batch_max ~batch_adaptive)
        |> with_deadline_us (deadline_us_of deadline_us))
    in
    { env; trace_out }
  in
  Term.(
    const make $ trace_out_arg $ check_arg $ batch_us_arg $ batch_max_arg
    $ batch_adaptive_arg $ deadline_us_arg)

(* Print a run's tables and verdict, then save its trace. *)
let report flags protocol ~header r =
  Harness.Run.print_latencies ~header:"latency (ms)" r;
  Harness.Run.print_metrics ~header r;
  Harness.print_verdict protocol r;
  save_trace flags.env.Harness.Env.trace flags.trace_out

(* A checked run fails the command unless it verified: a violation or a
   checker that gave up exits 2. Only [--check none] may end unverified. *)
let exit_unless_verified flags r =
  if flags.env.Harness.Env.check <> `No_check && not (Harness.Run.passed r)
  then exit 2

let spanner_cmd =
  let mode =
    Arg.(
      value
      & opt (enum [ ("strict", Spanner.Config.Strict); ("rss", Spanner.Config.Rss) ])
          Spanner.Config.Rss
      & info [ "mode" ] ~doc:"Consistency mode: strict or rss.")
  in
  let theta = Arg.(value & opt float 0.75 & info [ "theta" ] ~doc:"Zipfian skew.") in
  let duration =
    Arg.(value & opt float 30.0 & info [ "duration" ] ~doc:"Simulated seconds.")
  in
  let rate =
    Arg.(value & opt float 40.0 & info [ "rate" ] ~doc:"Session arrivals per second.")
  in
  let keys = Arg.(value & opt int 1_000_000 & info [ "keys" ] ~doc:"Keyspace size.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let reshard =
    Arg.(
      value
      & opt (some float) None
      & info [ "reshard" ] ~docv:"FRAC"
          ~doc:
            "Schedule one live key-range migration at $(docv) of the run \
             (e.g. 0.5 = halfway). The moved range defaults to the Zipfian-hot \
             eighth of the keyspace; see $(b,--reshard-range) and \
             $(b,--reshard-dst). Migration counters appear in the metrics \
             table as place.*.")
  in
  let reshard_range =
    Arg.(
      value
      & opt (some (pair ~sep:':' int int)) None
      & info [ "reshard-range" ] ~docv:"LO:HI"
          ~doc:
            "Key range [LO, HI) to migrate (requires $(b,--reshard); default \
             0:keys/8).")
  in
  let reshard_dst =
    Arg.(
      value & opt int 1
      & info [ "reshard-dst" ] ~docv:"SHARD"
          ~doc:"Destination shard for the migrated range (default 1).")
  in
  let reshard_no_fence =
    Arg.(
      value & flag
      & info [ "reshard-no-fence" ]
          ~doc:
            "Unsafe mutation control: skip the migration's fence, drain and \
             TrueTime barrier. Writes racing the snapshot are lost at the \
             destination; the (default) online checker flags the stale \
             reads.")
  in
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"FILE"
          ~doc:"Save the run's transactional history as a trace (re-checkable \
                with the check-trace subcommand; keep runs small for the \
                search checkers).")
  in
  let run mode theta duration rate keys seed reshard reshard_range reshard_dst
      reshard_no_fence export flags =
    if rate <= 0.0 then (Fmt.epr "error: --rate must be positive@."; exit 1);
    if theta < 0.0 then (Fmt.epr "error: --theta must be non-negative@."; exit 1);
    if duration <= 0.0 then (Fmt.epr "error: --duration must be positive@."; exit 1);
    if keys <= 0 then (Fmt.epr "error: --keys must be positive@."; exit 1);
    if seed < 0 then (Fmt.epr "error: --seed must be non-negative@."; exit 1);
    let reshard_specs =
      match reshard with
      | None ->
        if reshard_range <> None || reshard_no_fence then
          (Fmt.epr
             "error: --reshard-range/--reshard-no-fence require --reshard@.";
           exit 1);
        []
      | Some frac ->
        if frac <= 0.0 || frac >= 1.0 then
          (Fmt.epr "error: --reshard must be in (0, 1)@."; exit 1);
        let lo, hi =
          Option.value reshard_range ~default:(0, max 1 (keys / 8))
        in
        if lo < 0 || hi <= lo || hi > keys then
          (Fmt.epr "error: --reshard-range must satisfy 0 <= LO < HI <= keys@.";
           exit 1);
        let n_shards = (Spanner.Config.wan3 ~mode ()).Spanner.Config.n_shards in
        if reshard_dst < 0 || reshard_dst >= n_shards then
          (Fmt.epr "error: --reshard-dst must be in [0, %d)@." n_shards;
           exit 1);
        [
          {
            Harness.rs_at = frac;
            rs_lo = lo;
            rs_hi = hi;
            rs_dst = reshard_dst;
            rs_no_fence = reshard_no_fence;
          };
        ]
    in
    let r =
      Harness.spanner_wan
        ~env:(Harness.Env.with_reshard reshard_specs flags.env)
        ~mode ~theta ~n_keys:keys ~arrival_rate_per_sec:rate
        ~duration_s:duration ~seed ()
    in
    report flags ~header:"spanner"
      (match mode with
      | Spanner.Config.Strict -> Chaos.Audit.Spanner_strict
      | Spanner.Config.Rss -> Chaos.Audit.Spanner_rss)
      r;
    (match (export, r.Harness.Run.records) with
    | Some path, Harness.Run.Spanner_txns records ->
      let txns =
        Array.to_list records
        |> List.mapi (fun id w -> Rss_core.Txn_history.of_witness ~id w)
      in
      Rss_core.Trace.save ~path (Rss_core.Txn_history.make txns);
      Fmt.pr "trace: %d transactions written to %s@." (List.length txns) path
    | _ -> ());
    exit_unless_verified flags r
  in
  Cmd.v
    (Cmd.info "spanner" ~doc:"Simulate Spanner / Spanner-RSS on Retwis.")
    Term.(
      const run $ mode $ theta $ duration $ rate $ keys $ seed $ reshard
      $ reshard_range $ reshard_dst $ reshard_no_fence $ export $ run_flags)

let gryff_cmd =
  let mode =
    Arg.(
      value
      & opt (enum [ ("lin", Gryff.Config.Lin); ("rsc", Gryff.Config.Rsc) ])
          Gryff.Config.Rsc
      & info [ "mode" ] ~doc:"Consistency mode: lin or rsc.")
  in
  let conflict =
    Arg.(value & opt float 0.1 & info [ "conflict" ] ~doc:"Conflict fraction.")
  in
  let write_ratio =
    Arg.(value & opt float 0.3 & info [ "write-ratio" ] ~doc:"Write fraction.")
  in
  let duration =
    Arg.(value & opt float 30.0 & info [ "duration" ] ~doc:"Simulated seconds.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let run mode conflict write_ratio duration seed flags =
    if conflict < 0.0 || conflict > 1.0 then
      (Fmt.epr "error: --conflict must be in [0, 1]@."; exit 1);
    if write_ratio < 0.0 || write_ratio > 1.0 then
      (Fmt.epr "error: --write-ratio must be in [0, 1]@."; exit 1);
    if duration <= 0.0 then (Fmt.epr "error: --duration must be positive@."; exit 1);
    if seed < 0 then (Fmt.epr "error: --seed must be non-negative@."; exit 1);
    let r =
      Harness.gryff_wan ~env:flags.env ~mode ~conflict ~write_ratio
        ~n_keys:100_000 ~duration_s:duration ~seed ()
    in
    report flags ~header:"gryff"
      (match mode with
      | Gryff.Config.Lin -> Chaos.Audit.Gryff_lin
      | Gryff.Config.Rsc -> Chaos.Audit.Gryff_rsc)
      r;
    exit_unless_verified flags r
  in
  Cmd.v
    (Cmd.info "gryff" ~doc:"Simulate Gryff / Gryff-RSC on YCSB.")
    Term.(const run $ mode $ conflict $ write_ratio $ duration $ seed
          $ run_flags)

let check_cmd =
  let demo =
    Arg.(
      value
      & opt (enum [ ("fig4", `Fig4); ("i2", `I2); ("fig9", `Fig9) ]) `Fig4
      & info [ "demo" ] ~doc:"Which paper execution to check: fig4, i2, or fig9.")
  in
  let run demo =
    let h =
      match demo with
      | `Fig4 ->
        Rss_core.Txn_history.make
          [
            Rss_core.Txn_history.rw ~id:0 ~proc:0 ~writes:[ ("a", 1); ("b", 2) ]
              ~inv:0 ~resp:100 ();
            Rss_core.Txn_history.ro ~id:1 ~proc:1
              ~reads:[ ("a", Some 1); ("b", Some 2) ]
              ~inv:10 ~resp:20 ();
            Rss_core.Txn_history.ro ~id:2 ~proc:2
              ~reads:[ ("a", None); ("b", None) ]
              ~inv:30 ~resp:40 ();
          ]
      | `I2 ->
        Rss_core.Txn_history.make ~msg_edges:[ (0, 1) ]
          [
            Rss_core.Txn_history.rw ~id:0 ~proc:0
              ~writes:[ ("photo", 7); ("album", 1) ]
              ~inv:0 ~resp:10 ();
            Rss_core.Txn_history.ro ~id:1 ~proc:1 ~reads:[ ("photo", None) ]
              ~inv:20 ~resp:30 ();
          ]
      | `Fig9 ->
        Rss_core.Txn_history.make
          [
            Rss_core.Txn_history.rw ~id:0 ~proc:0 ~writes:[ ("x1", 1) ] ~inv:0
              ~resp:10 ();
            Rss_core.Txn_history.rw ~id:1 ~proc:1 ~writes:[ ("x2", 1) ] ~inv:20
              ~resp:30 ();
            Rss_core.Txn_history.ro ~id:2 ~proc:2
              ~reads:[ ("x1", None); ("x2", Some 1) ]
              ~inv:5 ~resp:35 ();
          ]
    in
    Fmt.pr "%-22s %s@." "model" "verdict";
    List.iter
      (fun m ->
        let verdict =
          match Rss_core.Check_txn.check h m with
          | Rss_core.Check_txn.Sat order ->
            Fmt.str "satisfiable  (witness: %s)"
              (String.concat " < " (List.map string_of_int order))
          | Rss_core.Check_txn.Unsat -> "violated"
          | Rss_core.Check_txn.Unknown -> "unknown (budget)"
        in
        Fmt.pr "%-22s %s@." (Rss_core.Check_txn.model_name m) verdict)
      Rss_core.Check_txn.all_models
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run the consistency checkers on paper executions.")
    Term.(const run $ demo)

let check_trace_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  let model =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun m -> (Rss_core.Check_txn.model_name m, m))
                Rss_core.Check_txn.all_models))
          Rss_core.Check_txn.Rss
      & info [ "model" ] ~doc:"Consistency model to check against.")
  in
  let budget =
    Arg.(value & opt int 2_000_000 & info [ "budget" ] ~doc:"Search state budget.")
  in
  let run path model budget =
    match Rss_core.Trace.load ~path with
    | Error m ->
      Fmt.epr "error: %s@." m;
      exit 1
    | Ok h -> (
      Fmt.pr "%d transactions, %d message edges@."
        (Rss_core.Txn_history.n_txns h)
        (List.length h.Rss_core.Txn_history.msg_edges);
      match Rss_core.Check_txn.check ~max_states:budget h model with
      | Rss_core.Check_txn.Sat order ->
        Fmt.pr "%s: SATISFIED@.witness: %s@."
          (Rss_core.Check_txn.model_name model)
          (String.concat " < " (List.map string_of_int order))
      | Rss_core.Check_txn.Unsat ->
        Fmt.pr "%s: VIOLATED@." (Rss_core.Check_txn.model_name model);
        exit 2
      | Rss_core.Check_txn.Unknown ->
        Fmt.pr "%s: UNKNOWN (budget exhausted; raise --budget)@."
          (Rss_core.Check_txn.model_name model);
        exit 3)
  in
  Cmd.v
    (Cmd.info "check-trace"
       ~doc:"Check a saved transactional trace against a model.")
    Term.(const run $ path $ model $ budget)

let chaos_cmd =
  let protocol =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun p -> (Chaos.Audit.protocol_name p, p))
                Chaos.Audit.protocols))
          Chaos.Audit.Spanner_rss
      & info [ "protocol" ]
          ~doc:"Protocol to audit: spanner, spanner-rss, gryff, or gryff-rsc.")
  in
  let nemesis =
    Arg.(
      value
      & opt (enum Chaos.Nemesis.presets) Chaos.Nemesis.Mixed
      & info [ "nemesis" ]
          ~doc:
            "Fault preset: partition-heal, link-loss, crash-recover, \
             latency-spike, eps-inflate, reorder-storm, mixed, leader-kill, \
             rolling-crash, reshard, hot-split, disk-tear, bit-rot, \
             torn-migration, or slow-node (gray failure: one site serves \
             slower and its links lag, no crash).")
  in
  let disk_fault_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "disk-fault-rate" ] ~docv:"R"
          ~doc:
            "Scale storage-damage probabilities by R (0 disables). The disk \
             presets (disk-tear, bit-rot, torn-migration) default to their \
             tuned fault mix; any positive R arms disk faults under every \
             preset.")
  in
  let failover =
    Arg.(
      value & flag
      & info [ "failover" ]
          ~doc:
            "Arm crash recovery: shard-group view changes, client retries \
             and in-doubt 2PC resolution (Spanner), request retransmission \
             (Gryff). Implied by every preset that crashes leaders or \
             moves placement (leader-kill, rolling-crash, reshard, \
             hot-split and the disk presets).")
  in
  let duration =
    Arg.(value & opt float 20.0 & info [ "duration" ] ~doc:"Simulated seconds.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed.") in
  let nemesis_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "nemesis-seed" ]
          ~doc:"Fault-schedule seed (defaults to --seed). A run is \
                reproducible from (seed, nemesis-seed).")
  in
  let slots =
    Arg.(
      value
      & opt (some int) None
      & info [ "slots" ] ~docv:"N"
          ~doc:
            "Concurrent client slots. Defaults to the audit's per-protocol \
             count (12 for the Spanner variants, 10 for the Gryff \
             variants), so a run matches the battery cell with the same \
             preset, seed and duration.")
  in
  let migrations =
    Arg.(
      value
      & opt (some int) None
      & info [ "migrations" ] ~docv:"N"
          ~doc:
            "Live key-range migrations to run during the audit (Spanner \
             variants only). Defaults to 2 for the presets that move \
             placement (reshard, hot-split, torn-migration), 0 otherwise.")
  in
  let run protocol nemesis duration seed nemesis_seed slots migrations failover
      disk_fault_rate trace_out deadline_us =
    let deadline_us = deadline_us_of deadline_us in
    if duration <= 0.0 then (Fmt.epr "error: --duration must be positive@."; exit 1);
    (match slots with
    | Some n when n <= 0 ->
      Fmt.epr "error: --slots must be positive@.";
      exit 1
    | _ -> ());
    if seed < 0 then (Fmt.epr "error: --seed must be non-negative@."; exit 1);
    (match nemesis_seed with
    | Some n when n < 0 ->
      Fmt.epr "error: --nemesis-seed must be non-negative@.";
      exit 1
    | _ -> ());
    (match migrations with
    | Some n when n < 0 ->
      Fmt.epr "error: --migrations must be non-negative@.";
      exit 1
    | _ -> ());
    (match disk_fault_rate with
    | Some r when r < 0.0 ->
      Fmt.epr "error: --disk-fault-rate must be non-negative@.";
      exit 1
    | _ -> ());
    let nseed = Option.value nemesis_seed ~default:seed in
    let tracer = tracer_for trace_out in
    let env =
      Harness.Env.(
        of_preset ?disk_rate:disk_fault_rate protocol nemesis
          ~duration_s:duration ~nemesis_seed:nseed
        |> (if failover then with_failover true else Fun.id)
        |> (match migrations with
           | Some n ->
             with_reshard
               (Harness.audit_migrations protocol
                  ~n_keys:(Harness.audit_keys protocol) n)
           | None -> Fun.id)
        |> with_trace tracer)
    in
    Fmt.pr "nemesis %s (seed %d):@." (Chaos.Nemesis.preset_name nemesis) nseed;
    List.iter
      (fun e -> Fmt.pr "  %a@." Chaos.Schedule.pp_event e)
      (List.stable_sort
         (fun a b -> compare a.Chaos.Schedule.at_us b.Chaos.Schedule.at_us)
         (Option.get env.Harness.Env.chaos));
    let r =
      Harness.audit ~env ?n_slots:slots ?timeout_us:deadline_us protocol
        ~duration_s:duration ~seed ()
    in
    Harness.print_audit protocol r;
    save_trace tracer trace_out;
    match (r.Harness.Run.check, Harness.liveness_ok r) with
    | Harness.Run.Pass, true ->
      let unrepaired = Harness.Run.counter r "durable.repair.unrepaired" in
      if unrepaired > 0 then begin
        Fmt.epr "error: %d members still quarantined at run end@." unrepaired;
        exit 4
      end
    | (Harness.Run.Fail _ | Harness.Run.Unknown _), _ -> exit 2
    | Harness.Run.Pass, false -> exit 3
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Audit a protocol under a nemesis fault schedule: inject faults, \
          collect the history, verify its consistency model and that \
          liveness resumes after heal.")
    Term.(
      const run $ protocol $ nemesis $ duration $ seed $ nemesis_seed $ slots
      $ migrations $ failover $ disk_fault_rate $ trace_out_arg
      $ deadline_us_arg)

let explore_cmd =
  let protocols =
    Arg.(
      value
      & opt_all
          (enum
             (List.map
                (fun p -> (Chaos.Audit.protocol_name p, p))
                Chaos.Audit.protocols))
          []
      & info [ "protocol" ]
          ~doc:
            "Protocol(s) to explore (repeatable). Defaults to all four \
             drivers.")
  in
  let presets =
    Arg.(
      value
      & opt_all (enum Chaos.Nemesis.presets) []
      & info [ "preset" ]
          ~doc:
            "Nemesis preset pool the search mutates over (repeatable). \
             Defaults to partition-heal, link-loss, reorder-storm, \
             leader-kill, asym-block and mixed — or asym-block alone under \
             $(b,--control).")
  in
  let budget =
    Arg.(
      value & opt int 0
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Total executions, shrink trials included (default 400; 1500 \
             under $(b,--control)).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory where shrunk repros are serialized.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Report failures as found, without delta-debugging them.")
  in
  let shrink_budget =
    Arg.(
      value & opt int 400
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Max executions spent minimizing each failure.")
  in
  let search_seed =
    Arg.(
      value & opt int 1
      & info [ "search-seed" ]
          ~doc:
            "Seed of the search's own mutation stream. The whole \
             exploration is a pure function of (config, this seed).")
  in
  let max_failures =
    Arg.(
      value & opt int 3
      & info [ "max-failures" ] ~docv:"K"
          ~doc:"Stop after K distinct failures.")
  in
  let control =
    Arg.(
      value & flag
      & info [ "control" ]
          ~doc:
            "Hunt the seeded-bug control: Gryff-RSC clients with the RSC \
             dependency fence disabled (unsafe_no_deps), over the \
             asym-block preset. Exit 0 iff the planted violation is found \
             within budget.")
  in
  let replay =
    Arg.(
      value & opt_all file []
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay corpus file(s) instead of searching: re-execute each \
             repro and compare its verdict byte-for-byte against the \
             file's expected line (repeatable).")
  in
  let run protocols presets budget corpus no_shrink shrink_budget search_seed
      max_failures control replay =
    if replay <> [] then begin
      let bad = ref 0 in
      List.iter
        (fun path ->
          match Explore.Corpus.replay_file path with
          | Error m ->
            incr bad;
            Fmt.pr "%s: ERROR %s@." path m
          | Ok r ->
            if not r.Explore.Corpus.matches then incr bad;
            Fmt.pr "%s: %s@.  expected %s@.  got      %s@." path
              (if r.Explore.Corpus.matches then "MATCH" else "MISMATCH")
              r.Explore.Corpus.entry.Explore.Corpus.expected
              (Explore.Exec.verdict_string
                 r.Explore.Corpus.outcome.Explore.Exec.verdict))
        replay;
      exit (if !bad = 0 then 0 else 5)
    end;
    if budget < 0 then (Fmt.epr "error: --budget must be non-negative@."; exit 1);
    let d =
      if control then Explore.Search.control_config ()
      else
        let d = Explore.Search.default_config () in
        { d with presets = d.Explore.Search.presets @ [ Chaos.Nemesis.Asym_block ] }
    in
    let cfg =
      {
        d with
        Explore.Search.protocols =
          (if protocols <> [] then protocols else d.Explore.Search.protocols);
        presets = (if presets <> [] then presets else d.Explore.Search.presets);
        budget = (if budget > 0 then budget else if control then 1_500 else 400);
        search_seed;
        shrink = not no_shrink;
        shrink_budget;
        max_failures = (if control then d.Explore.Search.max_failures else max_failures);
        corpus_dir = corpus;
      }
    in
    let r = Explore.Search.run cfg in
    Fmt.pr "explored %d executions: %d coverage signatures (%d novel), %d \
            failure(s)@."
      r.Explore.Search.execs r.Explore.Search.signatures
      r.Explore.Search.novel
      (List.length r.Explore.Search.failures);
    List.iter
      (fun (f : Explore.Search.failure) ->
        Fmt.pr "@.failure at execution %d:@.  %s@.  %s@."
          f.Explore.Search.found_at
          (Explore.Exec.describe f.Explore.Search.input)
          f.Explore.Search.verdict;
        if f.Explore.Search.shrunk <> f.Explore.Search.input then
          Fmt.pr "  shrunk (%d execs):@.  %s@.  %s@."
            f.Explore.Search.shrink_execs
            (Explore.Exec.describe f.Explore.Search.shrunk)
            f.Explore.Search.shrunk_verdict;
        match f.Explore.Search.corpus_file with
        | Some path -> Fmt.pr "  corpus: %s@." path
        | None -> ())
      r.Explore.Search.failures;
    if control then
      if r.Explore.Search.failures = [] then begin
        Fmt.epr "control: planted violation NOT found within budget@.";
        exit 1
      end
      else Fmt.pr "@.control: planted violation found and minimized@."
    else if r.Explore.Search.failures <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Coverage-guided schedule exploration: mutate seeds, fault \
          presets, perturbation vectors and environment knobs, dedup by \
          coverage signature, delta-debug every consistency violation to a \
          minimal replayable repro.")
    Term.(
      const run $ protocols $ presets $ budget $ corpus $ no_shrink
      $ shrink_budget $ search_seed $ max_failures $ control $ replay)

let () =
  let doc = "RSS / RSC reproduction playground" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "rss_repro" ~doc)
          [ spanner_cmd; gryff_cmd; check_cmd; check_trace_cmd; chaos_cmd;
            explore_cmd ]))
