(* The repo benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --selfcheck --workload W --seed N

   A measuring run repeats one workload in fresh child processes of this
   same executable until [S] seconds have passed, checks every repeat, and
   prints one JSON line: end-to-end metrics (medians over the repeats) with
   [--trace 0], per-layer metrics from an instrumented assembly of the same
   run with [--trace 1]. [--selfcheck] plants known costs in the
   benchmark's own instrumented calls and shows the ledger attributes them.
   See README.md for the metrics and the workloads. *)

open Perfbench

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* {2 Arguments} *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  selfcheck : bool;
  child : string option;
  hook_spin_s : float;
  sample_spin_s : float;
}

let parse argv =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.0;
        trace = false;
        selfcheck = false;
        child = None;
        hook_spin_s = 0.0;
        sample_spin_s = 0.0;
      }
  in
  let int_of s = match int_of_string_opt s with Some i -> i | None -> die "not an integer: %s" s in
  let float_of s =
    match float_of_string_opt s with Some f -> f | None -> die "not a number: %s" s
  in
  let rec go = function
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of v }; go rest
    | "--seconds" :: v :: rest -> a := { !a with seconds = float_of v }; go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> a := { !a with trace = false }
      | "1" -> a := { !a with trace = true }
      | _ -> die "--trace takes 0 or 1");
      go rest
    | "--selfcheck" :: rest -> a := { !a with selfcheck = true }; go rest
    | "--child" :: v :: rest -> a := { !a with child = Some v }; go rest
    | "--hook-spin-s" :: v :: rest -> a := { !a with hook_spin_s = float_of v }; go rest
    | "--sample-spin-s" :: v :: rest ->
      a := { !a with sample_spin_s = float_of v }; go rest
    | [] -> ()
    | x :: _ -> die "unknown argument %s" x
  in
  go (List.tl (Array.to_list argv));
  if !a.seconds <= 0.0 then die "--seconds must be positive";
  !a

let workload_of s =
  match Workloads.of_name s with
  | Some w -> w
  | None ->
    die "unknown workload %S (one of: %s)" s
      (String.concat ", " (List.map Workloads.name Workloads.all))

(* {2 Child runs}

   Each prints one flat JSON object as its last stdout line. *)

let emit fields =
  print_endline (Stat.json_object (List.map (fun (k, v) -> (k, Stat.json_value v)) fields))

let wall () = Unix.gettimeofday ()

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

(* Fields every child reports about the run it executed. *)
let run_fields w ~counter ~latencies ~history ~duration_us ~verdict =
  let digest =
    Digest.to_hex
      (Digest.string
         (Workloads.fingerprint w ~counter ~latencies ~history ~duration_us ~verdict))
  in
  [
    ("verdict", Stat.Str (Workloads.verdict_string verdict));
    ("pass", Stat.Bool (verdict = Harness.Run.Pass));
    ("digest", Stat.Str digest);
    ("attempted", Stat.Int (Stat.attempted (Workloads.protocol w) counter));
    ("completed", Stat.Int (Workloads.completed_of_history history));
    ("sim_tput_ops_s", Stat.Float (Workloads.sim_tput_ops_s w ~latencies));
  ]
  @ List.concat_map
      (fun f ->
        [
          (f.Workloads.f_name, Stat.Float f.Workloads.value_ms);
          ("samples." ^ f.Workloads.f_name, Stat.Int f.Workloads.samples);
        ])
      (Workloads.figures w ~latencies ~history)
  @ List.map
      (fun n -> ("c." ^ n, Stat.Int (counter n)))
      (Workloads.fingerprint_counters w)

(* The measured run: one plain driver call, nothing traced. *)
let child_run w ~seed =
  let chaos = Workloads.chaos w ~seed in
  let g0 = Gc.quick_stat () in
  let c0 = Sys.time () and w0 = wall () in
  let r = Workloads.harness w ~seed ~chaos in
  let cpu_s = Sys.time () -. c0 and wall_s = wall () -. w0 in
  let g1 = Gc.quick_stat () in
  emit
    ([
       ("wall_s", Stat.Float wall_s);
       ("cpu_s", Stat.Float cpu_s);
       ("kernel_s", Stat.Float (Speed.kernel ()));
       ("minor_words", Stat.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
       ("promoted_words", Stat.Float (g1.Gc.promoted_words -. g0.Gc.promoted_words));
       ("peak_heap_mb", Stat.Float (mb_of_words g1.Gc.top_heap_words));
     ]
    @ run_fields w ~counter:(Harness.Run.counter r) ~latencies:r.Harness.Run.latencies
        ~history:r.Harness.Run.records ~duration_us:r.Harness.Run.duration_us
        ~verdict:r.Harness.Run.check)

(* Set-up: generate the inputs and build the deployment up to its first
   event. A sample times a batch of set-ups lasting at least 20 ms, so a
   set-up of tens of microseconds is still read well above the clock's
   resolution; the median of up to 31 samples is reported. *)
let child_setup w ~seed =
  let setup () =
    let chaos = Workloads.chaos w ~seed in
    ignore
      (Sys.opaque_identity
         (Workloads.assemble w ~seed ~chaos Workloads.plain (Workloads.new_ledger ())))
  in
  let time_batch n =
    Gc.full_major ();
    let t0 = Sys.time () in
    for _ = 1 to n do
      setup ()
    done;
    (Sys.time () -. t0) /. float_of_int n
  in
  let batch = max 1 (int_of_float (Float.ceil (0.02 /. max 1e-6 (time_batch 1)))) in
  (* Warm up the process (heap growth, caches) before sampling. *)
  let t_warm = wall () +. 0.2 in
  while wall () < t_warm do
    ignore (time_batch batch)
  done;
  let samples = ref [] in
  let t_end = wall () +. 1.0 in
  while List.length !samples < 5 || (List.length !samples < 31 && wall () < t_end) do
    samples := time_batch batch :: !samples
  done;
  emit
    [ ("setup_s", Stat.Float (Stat.median !samples));
      ("setup_n", Stat.Int (List.length !samples));
      ("kernel_s", Stat.Float (Speed.kernel ())) ]

let sum_by pred rows =
  List.fold_left
    (fun (n, s) (k, e, t) -> if pred k then (n + e, s +. t) else (n, s))
    (0, 0.0) rows

let per n x = if n = 0 then 0.0 else x /. float_of_int n

let ns_per n s = per n (s *. 1e9)

let timer_kind k =
  k = "tt.wait" || k = "repl.timer" || k = "rpc.backoff"
  || (String.length k > 4 && String.sub k 0 4 = "txn.")

(* The traced run: the assembled deployment with the engine's per-kind
   profile, timed record hooks and samples, and station sampling on. *)
let child_ledger w ~seed ~hook_spin_s ~sample_spin_s =
  let chaos = Workloads.chaos w ~seed in
  let led = Workloads.new_ledger () in
  let probe = { Workloads.plain with Workloads.hook_spin_s; sample_spin_s } in
  if hook_spin_s > 0.0 || sample_spin_s > 0.0 then
    ignore (Lazy.force Workloads.spin_rate);
  let clock_s = Workloads.clock_overhead_s () in
  let w0 = wall () in
  let a = Workloads.assemble w ~seed ~chaos probe led in
  let engine = a.Workloads.engine in
  let c0 = Sys.time () in
  Workloads.run_attributed a led;
  let run_s = Sys.time () -. c0 in
  let o = a.Workloads.settle () in
  let wall_s = wall () -. w0 in
  let counter = Workloads.counter_of_outcome o in
  let ops = Stat.attempted (Workloads.protocol w) counter in
  let fops = float_of_int ops in
  let rows = Sim.Engine.profile engine in
  let events = Sim.Engine.executed engine in
  let _, kinds_s = sum_by (fun _ -> true) rows in
  (* Layer self time: each kind's time minus the instrumented calls that ran
     inside its events. *)
  let self_rows =
    List.map (fun (k, n, s) -> (k, n, s -. Workloads.nested_s led k)) rows
  in
  let kind k = sum_by (String.equal k) self_rows in
  let deliver_n, deliver_s = kind "net.deliver" in
  let flush_n, flush_s = kind "net.flush" in
  let job_n, job_s = kind "station.job" in
  let timer_n, timer_s = sum_by timer_kind self_rows in
  let stations = a.Workloads.stations in
  let jobs = List.fold_left (fun n st -> n + Sim.Station.jobs st) 0 stations in
  let busy = List.fold_left (fun n st -> n + Sim.Station.busy_us st) 0 stations in
  let sojourns =
    List.fold_left
      (fun acc st -> Stats.Recorder.merge acc (Sim.Station.sojourns st))
      (Stats.Recorder.create ()) stations
  in
  let pct r p = match Stats.Recorder.percentile_opt r p with Some v -> v | None -> 0.0 in
  let c n = float_of_int (counter n) in
  let frac a b = if b = 0.0 then 0.0 else a /. b in
  let envelopes = counter "batch.envelopes" in
  let drops =
    c "fault.dropped_crash" +. c "fault.dropped_partition" +. c "fault.dropped_loss"
  in
  (* Per timed call, less the clock read the timing itself adds. *)
  let call_ns n s = Float.max 0.0 (ns_per n s -. (clock_s *. 1e9)) in
  let engine_self_s = run_s -. kinds_s -. led.Workloads.attribution_s in
  (* Each timed layer's total seconds, for the self-check's leak shares. *)
  let totals =
    [
      ("engine.self_ns_per_event", engine_self_s); ("net.deliver_ns_per_event", deliver_s);
      ("net.flush_ns_per_event", flush_s); ("station.job_ns_per_event", job_s);
      ("proto.timer_ns_per_event", timer_s); ("check.add_ns", led.Workloads.hook_s);
      ("workload.sample_ns", led.Workloads.sample_s);
    ]
  in
  let layer =
    [
      ("engine.events_per_op", frac (float_of_int events) fops);
      ("engine.self_ns_per_event", ns_per events engine_self_s);
      ("engine.queue_depth_p50", pct (Sim.Engine.queue_depths engine) 50.0);
      ("net.msgs_per_op", frac (c "net.messages") fops);
      ("net.bytes_per_op", frac (c "net.bytes") fops);
      ("net.deliver_ns_per_event", ns_per deliver_n deliver_s);
      ("net.envelopes_per_op", frac (float_of_int envelopes) fops);
      ("net.members_per_envelope", frac (c "batch.members") (float_of_int envelopes));
      ("net.flush_ns_per_event", ns_per flush_n flush_s);
      ("net.dropped_frac", frac drops (c "net.messages"));
      ("station.jobs_per_op", frac (float_of_int jobs) fops);
      ( "station.busy_frac",
        frac (float_of_int busy)
          (float_of_int (List.length stations * o.Workloads.duration_us)) );
      ("station.sojourn_p99_us", pct sojourns 99.0);
      ("station.job_ns_per_event", ns_per job_n job_s);
      ("proto.timer_ns_per_event", ns_per timer_n timer_s);
      ("spanner.rw_commit_frac", frac (c "rw.committed") (c "rw.committed" +. c "rw.aborted_attempts"));
      ("spanner.ro_blocked_frac", frac (c "ro.blocked_at_shards") (c "ro.count"));
      ("gryff.read_second_round_frac", frac (c "read.second_round") (c "read.count"));
      ("rpc.retries_per_op", frac (c "failover.rpc_retries") fops);
      ("rpc.exhausted", c "failover.rpc_exhausted");
      ("check.records_per_op", frac (c "check.added") fops);
      ("check.work_per_op", frac (c "check.work") fops);
      ("check.max_displacement", c "check.max_displacement");
      ("check.add_ns", call_ns led.Workloads.hook_calls led.Workloads.hook_s);
      ("check.result_s", o.Workloads.result_s);
      ( "check.cpu_frac",
        frac (led.Workloads.hook_s +. o.Workloads.result_s) (run_s +. o.Workloads.result_s) );
      ("workload.sample_ns", call_ns led.Workloads.sample_calls led.Workloads.sample_s);
    ]
  in
  emit
    ([
       ("wall_s", Stat.Float wall_s);
       ("run_s", Stat.Float run_s);
       ("events", Stat.Int events);
       ("issued", Stat.Int led.Workloads.issued);
       ("finished", Stat.Int led.Workloads.completed);
       ("hook_calls", Stat.Int led.Workloads.hook_calls);
       ("sample_calls", Stat.Int led.Workloads.sample_calls);
     ]
    @ List.map (fun (k, v) -> ("m." ^ k, Stat.Float v)) layer
    @ List.map (fun (k, v) -> ("s." ^ k, Stat.Float v)) totals
    @ run_fields w ~counter ~latencies:o.Workloads.latencies ~history:o.Workloads.history
        ~duration_us:o.Workloads.duration_us ~verdict:o.Workloads.verdict)

(* The span run: the assembled deployment with an [Obs.Trace] sink only. *)
let child_spans w ~seed =
  let tracer = Obs.Trace.create () in
  let led = Workloads.new_ledger () in
  let w0 = wall () in
  let chaos = Workloads.chaos w ~seed in
  let a =
    Workloads.assemble w ~seed ~chaos { Workloads.plain with Workloads.tracer } led
  in
  let o = Workloads.run_assembled a in
  let wall_s = wall () -. w0 in
  emit
    ([
       ("wall_s", Stat.Float wall_s);
       ("kernel_s", Stat.Float (Speed.kernel ()));
       ("spans", Stat.Int (Obs.Trace.n_spans tracer));
       ("events", Stat.Int (Sim.Engine.executed a.Workloads.engine));
     ]
    @ run_fields w ~counter:(Workloads.counter_of_outcome o)
        ~latencies:o.Workloads.latencies ~history:o.Workloads.history
        ~duration_us:o.Workloads.duration_us ~verdict:o.Workloads.verdict)

(* {2 Spawning children} *)

(* Everything this process does must end by [deadline] (absolute). *)
let deadline = ref infinity

let read_all fd ~until =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec loop () =
    let left = until -. wall () in
    if left <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> false
      | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then true
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        end
  in
  let finished = loop () in
  (finished, Buffer.contents buf)

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

exception Child_failed of string

(* Run this executable in [mode] as a fresh process; its JSON result. *)
let child args mode extra =
  let argv =
    [ Sys.executable_name; "--child"; mode; "--workload"; args.workload; "--seed";
      string_of_int args.seed ]
    @ extra
  in
  let r, wfd = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin wfd
      Unix.stderr
  in
  Unix.close wfd;
  let finished, out = read_all r ~until:!deadline in
  Unix.close r;
  if not finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  match (finished, status) with
  | false, _ -> raise (Child_failed (mode ^ " run exceeded the time limit"))
  | true, Unix.WEXITED 0 -> (
    match Obs.Json.parse (last_line out) with
    | Ok j -> j
    | Error e -> raise (Child_failed (mode ^ " run printed no result: " ^ e)))
  | true, _ -> raise (Child_failed (mode ^ " run failed"))

let num j k =
  match Option.bind (Obs.Json.member k j) Obs.Json.to_num with
  | Some v -> v
  | None -> raise (Child_failed ("missing field " ^ k))

let str j k =
  match Option.bind (Obs.Json.member k j) Obs.Json.to_str with
  | Some v -> v
  | None -> raise (Child_failed ("missing field " ^ k))

let bool j k =
  match Obs.Json.member k j with
  | Some (Obs.Json.Bool b) -> b
  | _ -> raise (Child_failed ("missing field " ^ k))

let int j k = int_of_float (num j k)

(* {2 Checks} *)

let problems = ref []

let check ok fmt =
  Printf.ksprintf (fun m -> if not ok then problems := m :: !problems) fmt

(* The output checks every measured repeat must pass. *)
let check_rep w ~first j =
  let name = Workloads.name w in
  check (bool j "pass") "%s: verdict %s" name (str j "verdict");
  let attempted = int j "attempted" and completed = int j "completed" in
  check (completed <= attempted) "%s: %d completed > %d attempted" name completed attempted;
  if Workloads.fault_free w then
    check (completed = attempted) "%s: %d of %d ops failed on a fault-free workload"
      name (attempted - completed) attempted;
  check (completed >= Workloads.min_completed w) "%s: only %d ops completed (floor %d)"
    name completed (Workloads.min_completed w);
  check (str j "digest" = str first "digest")
    "%s: deterministic counts differ between runs of one seed (%s vs %s)" name
    (str j "digest") (str first "digest")

(* A traced run must reproduce the untraced run's counts and count the
   same ops the protocol counters do. *)
let check_traced w ~rep ~label j =
  let name = Workloads.name w in
  check (str j "digest" = str rep "digest")
    "%s: %s run's deterministic counts differ from the untraced run's" name label;
  match Obs.Json.member "issued" j with
  | None -> ()
  | Some _ ->
    check (int j "issued" = int rep "attempted")
      "%s: %s run issued %d ops, protocol counters say %d" name label (int j "issued")
      (int rep "attempted");
    check (int j "finished" = int rep "completed")
      "%s: %s run finished %d ops, history holds %d" name label (int j "finished")
      (int rep "completed")

(* {2 Measuring} *)

(* A run covers [sub_seeds] seeds derived from [--seed]. The simulated
   metrics of one seed are exact, but their tails and the work a seed
   generates vary from seed to seed; reporting medians over several seeds
   keeps one unlucky seed (a fault schedule that stalls the tail, say) from
   moving the result. *)
let sub_seeds = 8

let sub_seed ~seed i = (seed * sub_seeds) + i

(* Repeat the measured run in fresh processes, cycling through [seeds],
   while another repeat plus [reserve] repeats' worth of later work still
   fits in [budget] seconds from [t0]; at least [min_reps] repeats. Returns
   the repeats grouped by seed, in seed order, each group checked. *)
let measured_reps args w ~seeds ~t0 ~budget ~reserve ~min_reps =
  let n_seeds = List.length seeds in
  let rec go acc n =
    let est = if n = 0 then 0.0 else Stat.median (List.map (fun (_, dt, _) -> dt) acc) in
    if n >= min_reps && wall () -. t0 +. ((1.0 +. reserve) *. est) > budget then acc
    else begin
      let seed = List.nth seeds (n mod n_seeds) in
      let s0 = wall () in
      let j = child { args with seed } "run" [] in
      go ((seed, wall () -. s0, j) :: acc) (n + 1)
    end
  in
  let reps = List.rev (go [] 0) in
  List.map
    (fun seed ->
      let js = List.filter_map (fun (s, _, j) -> if s = seed then Some j else None) reps in
      let first = List.hd js in
      List.iter (check_rep w ~first) js;
      (seed, js))
    seeds

(* Host cost: the median over every repeat of the run. Seeds rotate, so
   each contributes a near-equal share. *)
let host groups f = Stat.median (List.concat_map (fun (_, js) -> List.map f js) groups)

(* A host time a child measured, scaled to nominal machine speed by the
   reference kernel it timed right after (see [Speed]). *)
let scaled j k = num j k *. Speed.scale ~kernel_s:(num j "kernel_s")

(* Deterministic figures: each seed's value (its repeats agree), median over
   seeds. *)
let exact groups f = Stat.median (List.map (fun (_, js) -> f (List.hd js)) groups)

let result_line ~correct ~attempted ~failed metrics =
  Stat.json_object
    [
      ("correct", Stat.json_value (Stat.Bool correct));
      ("attempted", Stat.json_value (Stat.Int attempted));
      ("failed", Stat.json_value (Stat.Int failed));
      ( "metrics",
        Stat.json_object
          (List.map
             (fun (name, unit, v) ->
               ( name,
                 Stat.json_object
                   [ ("value", Stat.json_float v); ("unit", Stat.json_string unit) ] ))
             metrics) );
    ]

(* A figure over every seed of the run: the median of the seeds' values,
   or [None] for a percentile some seed has fewer than [Stat.min_beyond]
   samples beyond. *)
let figure groups (name, permille) =
  let enough (_, js) =
    let count = int (List.hd js) ("samples." ^ name) in
    match permille with
    | Some permille -> Stat.tail_ok ~count ~permille
    | None -> count > 0
  in
  if List.for_all enough groups then Some (exact groups (fun j -> num j name)) else None

(* The human-readable report on stderr: the gated metrics, each host metric's
   spread over its repeats, and every latency figure, including those too
   seed-dependent to gate (medians of multimodal mixes, p99.9 tails). *)
let print_report w ~seed ~attempted ~completed groups metrics =
  let reps = List.concat_map snd groups in
  Printf.eprintf "perfbench: %s, seed %d: %d seeds, %d repeats\n" (Workloads.name w) seed
    (List.length groups) (List.length reps);
  List.iter (fun (name, unit, v) -> Printf.eprintf "  %-24s %14.6g %s\n" name v unit) metrics;
  let rep_spread label f =
    Printf.eprintf "  %-24s %14.4f (interquartile spread over repeats)\n" label
      (Stat.spread (List.map f reps))
  in
  Printf.eprintf "  %-24s %14.6g s  (unscaled median over repeats)\n" "wall_s measured"
    (host groups (fun j -> num j "wall_s"));
  Printf.eprintf "  %-24s %14.6g ops/s (unscaled median over repeats)\n"
    "ops_per_cpu_s measured"
    (host groups (fun j -> num j "completed" /. num j "cpu_s"));
  Printf.eprintf "  %-24s %14.6g s  (median over repeats; nominal %g s)\n" "kernel_s"
    (host groups (fun j -> num j "kernel_s"))
    Speed.nominal_s;
  rep_spread "wall_s per op" (fun j -> scaled j "wall_s" /. num j "completed");
  rep_spread "cpu_s per op" (fun j -> scaled j "cpu_s" /. num j "completed");
  Printf.eprintf "  %-24s %14.6g (%d of %d attempted ops, all seeds)\n" "failed_ops_frac"
    (Stat.failed_frac ~attempted ~completed ~pass:true)
    (attempted - completed) attempted;
  List.iter
    (fun ((name, _) as spec) ->
      if not (List.exists (fun (n, _, _) -> n = name) metrics) then
        let samples = exact groups (fun j -> num j ("samples." ^ name)) in
        match figure groups spec with
        | Some v ->
          Printf.eprintf "  %-24s %14.6g ms (ungated; median over seeds of %.0f samples)\n"
            name v samples
        | None ->
          Printf.eprintf "  %-24s %14s    (fewer than %d samples beyond it)\n" name "n/a"
            Stat.min_beyond)
    Workloads.figure_specs

let measure args w =
  let t0 = wall () in
  let name = Workloads.name w in
  let seeds = List.init sub_seeds (sub_seed ~seed:args.seed) in
  let rep_args = { args with trace = false } in
  let metrics, groups =
    if not args.trace then begin
      let setup = child { rep_args with seed = List.hd seeds } "setup" [] in
      (* Every seed at least once, the first twice, so determinism is
         checked even when repeats are slow; time allowing, every seed
         repeats. *)
      let groups =
        measured_reps rep_args w ~seeds ~t0 ~budget:args.seconds ~reserve:0.0
          ~min_reps:(sub_seeds + 1)
      in
      let per_op k j = num j k /. num j "completed" in
      let sum k = List.fold_left (fun n (_, js) -> n +. num (List.hd js) k) 0.0 groups in
      let gated name =
        match figure groups (name, List.assoc name Workloads.figure_specs) with
        | Some v -> v
        | None ->
          check false "%s: %s has fewer than %d samples beyond it" (Workloads.name w) name
            Stat.min_beyond;
          Float.nan
      in
      let v =
        [
          ("setup_s", scaled setup "setup_s");
          ("wall_s", host groups (fun j -> scaled j "wall_s"));
          ("ops_per_cpu_s", host groups (fun j -> num j "completed" /. scaled j "cpu_s"));
          ("minor_words_per_op", host groups (per_op "minor_words"));
          ("peak_heap_mb", host groups (fun j -> num j "peak_heap_mb"));
          ("sim_tput_ops_s", exact groups (fun j -> num j "sim_tput_ops_s"));
          ("sim_read_mean_ms", gated "sim_read_mean_ms");
          ("sim_write_mean_ms", gated "sim_write_mean_ms");
          ("sim_read_p99_ms", gated "sim_read_p99_ms");
          ("sim_write_p99_ms", gated "sim_write_p99_ms");
          ("completed_ops_frac", sum "completed" /. sum "attempted");
        ]
      in
      (List.map (fun (k, u) -> (k, u, List.assoc k v)) Stat.end_to_end, groups)
    end
    else begin
      (* Untraced repeats of the first seed for the reference counts, then
         one ledger run and one span run of it, which together take about
         four repeats. *)
      let seeds = [ List.hd seeds ] in
      let groups =
        measured_reps rep_args w ~seeds ~t0 ~budget:args.seconds ~reserve:4.0 ~min_reps:2
      in
      let reps = snd (List.hd groups) in
      let first = List.hd reps in
      let traced_args = { rep_args with seed = List.hd seeds } in
      let ledger = child traced_args "ledger" [] in
      check_traced w ~rep:first ~label:"ledger" ledger;
      let spans = child traced_args "spans" [] in
      check_traced w ~rep:first ~label:"span" spans;
      check (int spans "events" = int ledger "events")
        "%s: ledger and span runs executed different event counts" name;
      let ops = num first "attempted" in
      let median_of f = Stat.median (List.map f reps) in
      let v =
        ("obs.spans_per_op", num spans "spans" /. ops)
        :: ( "obs.trace_overhead_frac",
             (scaled spans "wall_s" /. median_of (fun j -> scaled j "wall_s")) -. 1.0 )
        :: ( "gc.promoted_words_per_op",
             median_of (fun j -> num j "promoted_words" /. num j "completed") )
        :: List.filter_map
             (fun (k, _) ->
               match Obs.Json.member ("m." ^ k) ledger with
               | Some x -> Option.map (fun v -> (k, v)) (Obs.Json.to_num x)
               | None -> None)
             Stat.per_layer
      in
      (List.map (fun (k, u) -> (k, u, List.assoc k v)) Stat.per_layer, groups)
    end
  in
  let firsts = List.map (fun (_, js) -> List.hd js) groups in
  let attempted = List.fold_left (fun n j -> n + int j "attempted") 0 firsts in
  let completed = List.fold_left (fun n j -> n + int j "completed") 0 firsts in
  let pass = List.for_all (fun j -> bool j "pass") firsts in
  if not args.trace then print_report w ~seed:args.seed ~attempted ~completed groups metrics;
  let correct = !problems = [] in
  let failed = if correct then Stat.failed ~attempted ~completed ~pass else attempted in
  List.iter (fun m -> prerr_endline ("perfbench: FAILED CHECK: " ^ m)) (List.rev !problems);
  result_line ~correct ~attempted ~failed metrics

(* {2 Self-check}

   Plant a known host cost in the benchmark's own record hook, then
   separately in its workload sampling, and show the ledger puts exactly
   that cost where it was planted and nowhere else. *)

let layer_ns =
  [
    "engine.self_ns_per_event"; "net.deliver_ns_per_event"; "net.flush_ns_per_event";
    "station.job_ns_per_event"; "proto.timer_ns_per_event"; "check.add_ns";
    "workload.sample_ns";
  ]

let selfcheck args w =
  let name = Workloads.name w in
  let b0 = child args "ledger" [] in
  (* Plant about 80% of the run's CPU time in each target, well above the
     machine's run-to-run noise. *)
  let plant calls = 0.8 *. num b0 "run_s" /. float_of_int (max 1 calls) in
  let targets =
    [
      ("check.add_ns", "--hook-spin-s", int b0 "hook_calls");
      ("workload.sample_ns", "--sample-spin-s", int b0 "sample_calls");
    ]
  in
  let flags (_, flag, calls) = [ flag; Printf.sprintf "%.12f" (plant calls) ] in
  (* Seven rounds of (base, hook planted, sample planted). A rise is the
     median over rounds of a planted run minus the base run just before it,
     so a slow phase of the machine cancels out of each difference. *)
  let rounds =
    List.init 7 (fun _ ->
        child args "ledger" [] :: List.map (fun t -> child args "ledger" (flags t)) targets)
  in
  List.iter
    (fun r -> List.iter (check_traced w ~rep:b0 ~label:"self-check ledger") r)
    rounds;
  let ok = ref true in
  let line ~label ~value ~lo ~hi =
    let good = value >= lo && value <= hi in
    if not good then ok := false;
    Printf.printf "  %-32s %14.3f  expected in [%.3f, %.3f]  %s\n" label value lo hi
      (if good then "ok" else "FAIL")
  in
  List.iteri
    (fun i (target, _, calls) ->
      let planted = plant calls in
      let total = planted *. float_of_int calls in
      let rise k =
        Stat.median
          (List.map (fun r -> num (List.nth r (i + 1)) k -. num (List.hd r) k) rounds)
      in
      Printf.printf "%s: planted %.0f ns per %s call x %d calls = %.3f s\n" name
        (planted *. 1e9) target calls total;
      let planted_ns = planted *. 1e9 in
      line ~label:("rise of " ^ target ^ " (ns)") ~value:(rise ("m." ^ target))
        ~lo:(0.9 *. planted_ns) ~hi:(1.1 *. planted_ns);
      (* Totals may overshoot: code around a long spin runs a little slower
         and wall time also catches descheduling, both only ever adding. *)
      line ~label:"rise of wall_s (s)" ~value:(rise "wall_s") ~lo:(0.85 *. total)
        ~hi:(1.4 *. total);
      line ~label:"rise of run CPU (s)" ~value:(rise "run_s") ~lo:(0.85 *. total)
        ~hi:(1.4 *. total);
      (* Misattribution would move a whole share of the planted cost into
         one other layer's total (and out of another); allow the spread
         slowdown above. *)
      List.iter
        (fun m ->
          if m <> target then
            line ~label:("leak into " ^ m) ~value:(rise ("s." ^ m) /. total) ~lo:(-0.2)
              ~hi:0.2)
        layer_ns)
    targets;
  if !problems <> [] then begin
    ok := false;
    List.iter (fun m -> print_endline ("FAILED CHECK: " ^ m)) (List.rev !problems)
  end;
  Printf.printf "%s: attribution self-check %s\n" name (if !ok then "passed" else "FAILED");
  !ok

let () =
  let args = parse Sys.argv in
  match args.child with
  | Some mode -> (
    let w = workload_of args.workload in
    match mode with
    | "run" -> child_run w ~seed:args.seed
    | "setup" -> child_setup w ~seed:args.seed
    | "ledger" ->
      child_ledger w ~seed:args.seed ~hook_spin_s:args.hook_spin_s
        ~sample_spin_s:args.sample_spin_s
    | "spans" -> child_spans w ~seed:args.seed
    | m -> die "unknown child mode %s" m)
  | None ->
    let workloads =
      if args.workload = "all" then Workloads.all else [ workload_of args.workload ]
    in
    if args.selfcheck then begin
      deadline := wall () +. 1800.0;
      let results =
        List.map (fun w -> selfcheck { args with workload = Workloads.name w } w) workloads
      in
      let ok = List.for_all Fun.id results in
      exit (if ok then 0 else 1)
    end
    else begin
      (* The whole run must end within 180 s, children included. *)
      deadline := wall () +. 170.0 *. float_of_int (List.length workloads);
      List.iter
        (fun w ->
          problems := [];
          let line =
            try measure { args with workload = Workloads.name w } w
            with Child_failed m -> die "%s: %s" (Workloads.name w) m
          in
          if List.length workloads > 1 then print_string (Workloads.name w ^ " ");
          print_endline line)
        workloads
    end
