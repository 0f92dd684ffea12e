(* Perf-regression scale suite.

   Drives each protocol family at 10-100x the op counts of the paper-figure
   benches and records, per run: ops/sec of host CPU, host CPU per simulated
   second, checker cost, and heap footprint via [Gc.stat], each run in its
   own forked child so its heap figures are its own. Every scenario
   runs twice — [`No_check] for raw simulator speed and [`Online] for the
   checker — so the checker's cost is the difference between two otherwise
   identical seeded runs (the judge runs after the engine drains, so the
   simulated schedules are the same).

   A separate scaling probe re-runs the Spanner scenario at 1/4 and 1/2 of
   its duration and fits a log-log exponent to the checker cost against the
   history length, in both deterministic work units (how far recording order
   strays from the claimed order, reproducible across hosts) and measured
   CPU seconds. The checker sorts and replays, so its CPU cost is
   O(m log m) in records and key occurrences whatever the work units read.
   The fitted exponents are emitted in the JSON rather than asserted: CI
   validates the report's shape and that every online run's checker saw
   all of its records; humans and trend dashboards read the exponents.

   Output is machine-readable JSON (default [BENCH_scale.json]):

     dune exec bench/scale.exe --              # full sizes, ~1-2 min
     dune exec bench/scale.exe -- --smoke      # CI sizes, a few seconds

   Exit status: 1 if any verified history failed, or if a full (non-smoke)
   run missed its minimum op count — so CI and local runs alike catch both
   consistency and throughput regressions. *)

(* A measured run: its counters, gauges and verdict, plus what only the
   host can time. *)
type timed = {
  run : Harness.Run.t;
  cpu_s : float;
  live_words : int;
  heap_growth_words : int;
  top_heap_words : int;
}

(* Each measured run happens in a forked child, which marshals its
   measurement back through a pipe — the run without its history or its
   latencies: a 500k-record history never crosses it, and what the parent
   holds stays small, since every later child inherits it and counts it in
   [live_words]. On OCaml 5.1 [Gc.compact] shrinks
   neither [heap_words] nor [top_heap_words], so in one process a run that
   stays below an earlier run's peak could not see its own growth. The
   child starts from the parent's small, freshly compacted heap, and
   [heap_growth_words] is its peak minus that starting heap. [peak_words]
   keeps the largest child peak for the report's top level. *)
let peak_words = ref 0

let measure (f : unit -> Harness.Run.t) =
  Gc.compact ();
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let status =
      match
        let h0 = (Gc.quick_stat ()).Gc.heap_words in
        let r, cpu_s = Report.timed f in
        let st = Gc.stat () in
        {
          run = { (Report.drop_history r) with Harness.Run.latencies = [] };
          cpu_s;
          live_words = st.Gc.live_words;
          heap_growth_words = st.Gc.top_heap_words - h0;
          top_heap_words = st.Gc.top_heap_words;
        }
      with
      | m ->
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc (m : timed) [];
        close_out oc;
        0
      | exception e ->
        prerr_endline ("scale: measured run raised " ^ Printexc.to_string e);
        2
    in
    flush_all ();
    Unix._exit status
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let m = try Some (Marshal.from_channel ic : timed) with End_of_file -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match m with
    | Some m ->
      peak_words := max !peak_words m.top_heap_words;
      m
    | None -> failwith "scale: measured run failed")

let n_ops m = Report.n_ops m.run
let checker_work m = Harness.Run.counter m.run "check.work"

(* The whole judge's time — every record fed and every verdict settled,
   after the drain; 0 for an unchecked run. *)
let checker_finish_s m =
  Option.value (Harness.Run.gauge_opt m.run "check.finish_s") ~default:0.0

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

type scenario = {
  name : string;
  min_ops : int;  (* full-mode floor; a run below this is a regression *)
  run : check_mode:Harness.check_mode -> duration_s:float -> Harness.Run.t;
  duration_s : float;  (* full-mode duration *)
  smoke_duration_s : float;
}

let scenarios ~seed =
  [
    (* ~23.5k txns per simulated second: 22 s -> ~515k transactions. *)
    {
      name = "spanner-dc-rss";
      min_ops = 500_000;
      duration_s = 22.0;
      smoke_duration_s = 2.0;
      run =
        (fun ~check_mode ~duration_s ->
          Harness.spanner_dc
            ~env:Harness.Env.(default |> with_check check_mode)
            ~mode:Spanner.Config.Rss ~n_shards:4 ~service_time_us:10
            ~n_clients:16 ~n_keys:2000 ~duration_s ~seed ());
    };
    (* ~67k ops per simulated second: 8 s -> ~530k operations. *)
    {
      name = "gryff-dc-lin";
      min_ops = 450_000;
      duration_s = 8.0;
      smoke_duration_s = 0.5;
      run =
        (fun ~check_mode ~duration_s ->
          Harness.gryff_dc
            ~env:Harness.Env.(default |> with_check check_mode)
            ~mode:Gryff.Config.Lin ~service_time_us:10 ~n_clients:24
            ~conflict:0.1 ~write_ratio:0.5 ~n_keys:2000 ~duration_s ~seed ());
    };
    (* WAN latencies bound throughput (~220 ops/s of simulated time), so
       scale comes from duration; host cost stays small. *)
    {
      name = "gryff-wan-rsc";
      min_ops = 20_000;
      duration_s = 120.0;
      smoke_duration_s = 20.0;
      run =
        (fun ~check_mode ~duration_s ->
          Harness.gryff_wan ~n_clients:32
            ~env:Harness.Env.(default |> with_check check_mode)
            ~mode:Gryff.Config.Rsc ~conflict:0.2 ~write_ratio:0.5 ~n_keys:2000
            ~duration_s ~seed ());
    };
  ]

(* ------------------------------------------------------------------ *)
(* Checker-scaling probe                                               *)
(* ------------------------------------------------------------------ *)

type point = { p_n : int; p_work : int; p_cpu : float }

(* Least-squares slope of ln y against ln x — the growth exponent. *)
let fitted_exponent points ~y =
  let xs = List.map (fun p -> log (float_of_int (max 1 p.p_n))) points in
  let ys = List.map (fun p -> log (Float.max 1e-9 (y p))) points in
  let n = float_of_int (List.length points) in
  let mean l = List.fold_left ( +. ) 0.0 l /. n in
  let xm = mean xs and ym = mean ys in
  let num =
    List.fold_left2 (fun a x y -> a +. ((x -. xm) *. (y -. ym))) 0.0 xs ys
  in
  let den = List.fold_left (fun a x -> a +. ((x -. xm) ** 2.0)) 0.0 xs in
  if den <= 0.0 then nan else num /. den

let run_json ~check m =
  let open Obs.Json in
  let ops = n_ops m and sim = Report.sim_s m.run in
  Report.(
    run_json m.run
      [ Value ("check", Str check); Value ("n_ops", int ops);
        Value ("sim_s", Num sim); Value ("cpu_s", Num m.cpu_s);
        Value ("ops_per_cpu_s", Num (float_of_int ops /. Float.max 1e-9 m.cpu_s));
        Value ("cpu_per_sim_s", Num (m.cpu_s /. Float.max 1e-9 sim));
        Value ("checker_finish_s", Num (checker_finish_s m));
        Counter ("checker_work", "check.work");
        Counter ("checker_added", "check.added");
        Counter ("checker_max_displacement", "check.max_displacement");
        Value ("live_words", int m.live_words);
        Value ("heap_growth_words", int m.heap_growth_words); Verdict ])

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let cli = Report.cli "scale" in
  let smoke = cli.Report.smoke and seed = Option.get cli.Report.seed in
  let failed = ref false in
  let scaling_points = ref [] in
  let scenario_reports =
    List.map
      (fun sc ->
        let duration_s = if smoke then sc.smoke_duration_s else sc.duration_s in
        Printf.printf "== %s (%.1f simulated s) ==\n%!" sc.name duration_s;
        let raw = measure (fun () -> sc.run ~check_mode:`No_check ~duration_s) in
        Printf.printf
          "   raw:    %7d ops  %6.2f cpu-s  (%7.0f ops/cpu-s, %5.2f cpu-s per \
           sim-s)\n\
           %!"
          (n_ops raw) raw.cpu_s
          (float_of_int (n_ops raw) /. Float.max 1e-9 raw.cpu_s)
          (raw.cpu_s /. Float.max 1e-9 (Report.sim_s raw.run));
        let online = measure (fun () -> sc.run ~check_mode:`Online ~duration_s) in
        Printf.printf
          "   online: %7d ops  %6.2f cpu-s  verdict=%s  work=%d  max-disp=%d\n%!"
          (n_ops online) online.cpu_s
          (Report.verdict online.run.Harness.Run.check)
          (checker_work online)
          (Harness.Run.counter online.run "check.max_displacement");
        (match online.run.Harness.Run.check with
        | Harness.Run.Fail m ->
          Printf.printf "   CONSISTENCY FAILURE: %s\n%!" m;
          failed := true
        | Harness.Run.Pass | Harness.Run.Unknown _ -> ());
        if (not smoke) && n_ops online < sc.min_ops then begin
          Printf.printf "   THROUGHPUT REGRESSION: %d ops < required %d\n%!"
            (n_ops online) sc.min_ops;
          failed := true
        end;
        (* The Spanner scenario doubles as the checker-scaling subject: its
           full-size online run is the probe's largest point. *)
        if sc.name = "spanner-dc-rss" then begin
          let checker_cpu = Float.max (checker_finish_s online)
              (online.cpu_s -. raw.cpu_s) in
          scaling_points :=
            [ { p_n = n_ops online; p_work = checker_work online;
                p_cpu = checker_cpu } ];
          List.iter
            (fun frac ->
              let d = duration_s *. frac in
              let r =
                measure (fun () -> sc.run ~check_mode:`No_check ~duration_s:d)
              in
              let o =
                measure (fun () -> sc.run ~check_mode:`Online ~duration_s:d)
              in
              let checker_cpu =
                Float.max (checker_finish_s o) (o.cpu_s -. r.cpu_s)
              in
              Printf.printf
                "   probe %4.2fx: %7d ops  checker %5.2f cpu-s  work=%d\n%!"
                frac (n_ops o) checker_cpu (checker_work o);
              scaling_points :=
                { p_n = n_ops o; p_work = checker_work o; p_cpu = checker_cpu }
                :: !scaling_points)
            [ 0.5; 0.25 ]
        end;
        Obs.Json.(
          Obj
            [ ("name", Str sc.name);
              ( "runs",
                Arr [ run_json ~check:"none" raw; run_json ~check:"online" online ] ) ]))
      (scenarios ~seed)
  in
  let points = List.sort (fun a c -> compare a.p_n c.p_n) !scaling_points in
  let work_exp = fitted_exponent points ~y:(fun p -> float_of_int p.p_work) in
  let cpu_exp = fitted_exponent points ~y:(fun p -> p.p_cpu) in
  Printf.printf
    "checker scaling: work-units exponent %.2f, cpu exponent %.2f (1.0 = \
     linear, 2.0 = quadratic)\n\
     %!"
    work_exp cpu_exp;
  let open Obs.Json in
  let point p =
    Obj
      [ ("n_ops", Report.int p.p_n); ("checker_work", Report.int p.p_work);
        ("checker_cpu_s", Num p.p_cpu) ]
  in
  Report.write cli ~schema:"rss-repro/scale/v2" ~ok:(not !failed)
    [ ("scenarios", Arr scenario_reports);
      ( "checker_scaling",
        Obj
          [ ("scenario", Str "spanner-dc-rss");
            ("points", Arr (List.map point points));
            ("work_exponent", Num work_exp); ("cpu_exponent", Num cpu_exp);
            ("sub_quadratic", Bool (Float.is_nan work_exp = false && work_exp < 2.0)) ] );
      ("top_heap_words", Report.int !peak_words) ]
