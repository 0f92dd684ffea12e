(* Perf-regression scale suite.

   Drives each protocol family at 10-100x the op counts of the paper-figure
   benches and records, per run: ops/sec of host CPU, host CPU per simulated
   second, checker cost, and heap footprint via [Gc.stat], each run in its
   own forked child so its heap figures are its own. Every scenario
   runs twice — [`No_check] for raw simulator speed and [`Online] for the
   streaming checker — so the checker's cost is the difference between two
   otherwise identical seeded runs (record hooks draw no randomness, so the
   simulated schedules are the same).

   A separate scaling probe re-runs the Spanner scenario at 1/4 and 1/2 of
   its duration and fits a log-log exponent to the checker cost against the
   history length, in both deterministic work units (insertion displacement,
   reproducible across hosts) and measured CPU seconds. The suite's claim
   that online checking is sub-quadratic is that fitted exponent, emitted in
   the JSON rather than asserted — CI validates the report's shape; humans
   and trend dashboards read the exponent.

   Output is machine-readable JSON (default [BENCH_scale.json]):

     dune exec bench/scale.exe --              # full sizes, ~1-2 min
     dune exec bench/scale.exe -- --smoke      # CI sizes, a few seconds

   Exit status: 1 if any verified history failed, or if a full (non-smoke)
   run missed its minimum op count — so CI and local runs alike catch both
   consistency and throughput regressions. *)

type measured = {
  check : string;  (* "none" | "online" *)
  n_ops : int;
  sim_s : float;
  cpu_s : float;
  checker_finish_s : float;
  checker_work : int;
  checker_added : int;
  checker_max_displacement : int;
  live_words : int;
  heap_growth_words : int;
  top_heap_words : int;
  verdict : Harness.Run.verdict;
}

(* Each measured run happens in a forked child, which marshals its
   measurement back through a pipe. On OCaml 5.1 [Gc.compact] shrinks
   neither [heap_words] nor [top_heap_words], so in one process a run that
   stays below an earlier run's peak could not see its own growth. The
   child starts from the parent's small, freshly compacted heap, and
   [heap_growth_words] is its peak minus that starting heap. [peak_words]
   keeps the largest child peak for the report's top level. *)
let peak_words = ref 0

let measure ~check_name (f : unit -> Harness.Run.t) =
  Gc.compact ();
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let status =
      match
        let h0 = (Gc.quick_stat ()).Gc.heap_words in
        let t0 = Sys.time () in
        let r = f () in
        let cpu_s = Sys.time () -. t0 in
        let st = Gc.stat () in
        let gauge name =
          let g = Harness.Run.gauge r name in
          if Float.is_nan g then 0.0 else g
        in
        {
          check = check_name;
          n_ops = Harness.Run.n_records r;
          sim_s = Sim.Engine.to_sec r.Harness.Run.duration_us;
          cpu_s;
          checker_finish_s = gauge "check.finish_s";
          checker_work = Harness.Run.counter r "check.work";
          checker_added = Harness.Run.counter r "check.added";
          checker_max_displacement = Harness.Run.counter r "check.max_displacement";
          live_words = st.Gc.live_words;
          heap_growth_words = st.Gc.top_heap_words - h0;
          top_heap_words = st.Gc.top_heap_words;
          verdict = r.Harness.Run.check;
        }
      with
      | m ->
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc (m : measured) [];
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
    let m = try Some (Marshal.from_channel ic : measured) with End_of_file -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match m with
    | Some m ->
      peak_words := max !peak_words m.top_heap_words;
      m
    | None -> failwith "scale: measured run failed")

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

let measured_json m =
  let open Obs.Json in
  let int = Report.int in
  Obj
    ([ ("check", Str m.check); ("n_ops", int m.n_ops); ("sim_s", Num m.sim_s);
       ("cpu_s", Num m.cpu_s);
       ("ops_per_cpu_s", Num (float_of_int m.n_ops /. Float.max 1e-9 m.cpu_s));
       ("cpu_per_sim_s", Num (m.cpu_s /. Float.max 1e-9 m.sim_s));
       ("checker_finish_s", Num m.checker_finish_s);
       ("checker_work", int m.checker_work); ("checker_added", int m.checker_added);
       ("checker_max_displacement", int m.checker_max_displacement);
       ("live_words", int m.live_words);
       ("heap_growth_words", int m.heap_growth_words) ]
    @ Report.verdict_fields m.verdict)

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
        let raw =
          measure ~check_name:"none" (fun () ->
              sc.run ~check_mode:`No_check ~duration_s)
        in
        Printf.printf
          "   raw:    %7d ops  %6.2f cpu-s  (%7.0f ops/cpu-s, %5.2f cpu-s per \
           sim-s)\n\
           %!"
          raw.n_ops raw.cpu_s
          (float_of_int raw.n_ops /. Float.max 1e-9 raw.cpu_s)
          (raw.cpu_s /. Float.max 1e-9 raw.sim_s);
        let online =
          measure ~check_name:"online" (fun () ->
              sc.run ~check_mode:`Online ~duration_s)
        in
        Printf.printf
          "   online: %7d ops  %6.2f cpu-s  verdict=%s  work=%d  max-disp=%d\n%!"
          online.n_ops online.cpu_s (Report.verdict online.verdict)
          online.checker_work online.checker_max_displacement;
        (match online.verdict with
        | Harness.Run.Fail m ->
          Printf.printf "   CONSISTENCY FAILURE: %s\n%!" m;
          failed := true
        | Harness.Run.Pass | Harness.Run.Unknown _ -> ());
        if (not smoke) && online.n_ops < sc.min_ops then begin
          Printf.printf "   THROUGHPUT REGRESSION: %d ops < required %d\n%!"
            online.n_ops sc.min_ops;
          failed := true
        end;
        (* The Spanner scenario doubles as the checker-scaling subject: its
           full-size online run is the probe's largest point. *)
        if sc.name = "spanner-dc-rss" then begin
          let checker_cpu = Float.max online.checker_finish_s
              (online.cpu_s -. raw.cpu_s) in
          scaling_points :=
            [ { p_n = online.n_ops; p_work = online.checker_work;
                p_cpu = checker_cpu } ];
          List.iter
            (fun frac ->
              let d = duration_s *. frac in
              let r =
                measure ~check_name:"none" (fun () ->
                    sc.run ~check_mode:`No_check ~duration_s:d)
              in
              let o =
                measure ~check_name:"online" (fun () ->
                    sc.run ~check_mode:`Online ~duration_s:d)
              in
              let checker_cpu =
                Float.max o.checker_finish_s (o.cpu_s -. r.cpu_s)
              in
              Printf.printf
                "   probe %4.2fx: %7d ops  checker %5.2f cpu-s  work=%d\n%!"
                frac o.n_ops checker_cpu o.checker_work;
              scaling_points :=
                { p_n = o.n_ops; p_work = o.checker_work; p_cpu = checker_cpu }
                :: !scaling_points)
            [ 0.5; 0.25 ]
        end;
        Obs.Json.(
          Obj
            [ ("name", Str sc.name);
              ("runs", Arr [ measured_json raw; measured_json online ]) ]))
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
