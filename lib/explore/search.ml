type config = {
  protocols : Chaos.Audit.protocol list;
  presets : Chaos.Nemesis.preset list;
  budget : int;
  search_seed : int;
  base : Chaos.Audit.protocol -> Exec.input;
  shrink : bool;
  shrink_budget : int;
  max_failures : int;
  corpus_dir : string option;
  tracer : Obs.Trace.t;
  metrics : Obs.Metrics.t option;
}

let default_config () =
  {
    protocols = Chaos.Audit.protocols;
    presets =
      [
        Chaos.Nemesis.Partition_heal;
        Chaos.Nemesis.Link_loss;
        Chaos.Nemesis.Reorder_storm;
        Chaos.Nemesis.Leader_kill;
        Chaos.Nemesis.Mixed;
      ];
    budget = 200;
    search_seed = 1;
    base = Exec.base;
    shrink = true;
    shrink_budget = 60;
    max_failures = 3;
    corpus_dir = None;
    tracer = Obs.Trace.disabled;
    metrics = None;
  }

(* The hunt base is the shape empirically densest in no-deps anomalies: a
   single hot key (high conflict, small keyspace), read-mostly so the
   carstamp frontier advances slowly and a stranded write stays maximal
   long enough for one client to observe it twice, and a timeout short
   enough that slots stuck behind a one-way block respawn and re-read. The
   search still owns the seeds and perturbation vectors — at a budget of
   1500 the control falls within the first ~1000 executions for every
   search seed tried. *)
let control_config () =
  {
    (default_config ()) with
    protocols = [ Chaos.Audit.Gryff_rsc ];
    presets = [ Chaos.Nemesis.Asym_block ];
    base =
      (fun p ->
        {
          (Exec.base p) with
          Exec.duration_ms = 2_500;
          timeout_ms = 600;
          n_slots = 10;
          n_keys = 2;
          conflict_pct = 100;
          write_pct = 28;
          unsafe = true;
        });
    max_failures = 1;
  }

type failure = {
  input : Exec.input;
  verdict : string;
  shrunk : Exec.input;
  shrunk_verdict : string;
  shrink_execs : int;
  found_at : int;
  corpus_file : string option;
}

type result = {
  execs : int;
  signatures : int;
  novel : int;
  failures : failure list;
}

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let nonzeros a = Array.fold_left (fun n v -> if v = 0 then n else n + 1) 0 a

(* Strictly decreasing across every accepted shrink step: halving the
   duration or slot count dominates, zeroing a perturbation entry or
   trimming the vector always helps, switching a knob off always helps. *)
let cost (i : Exec.input) =
  (i.Exec.duration_ms * 16)
  + (i.Exec.n_slots * 1_000)
  + (100 * (nonzeros i.Exec.perturb.Perturb.tie
            + nonzeros i.Exec.perturb.Perturb.jitter_us))
  + (20 * (Array.length i.Exec.perturb.Perturb.tie
           + Array.length i.Exec.perturb.Perturb.jitter_us))
  + (if i.Exec.batch_us > 0 then 400 else 0)
  + if i.Exec.disk_rate_pct > 0 then 400 else 0

let min_duration_ms = 400

exception Budget_exhausted

(* Greedy delta-debugging toward a cost fixpoint: a candidate replaces the
   current repro iff it is strictly cheaper AND still fails (any [Fail] —
   the message may legitimately drift as the history shrinks, the corpus
   stores whatever the minimum produces). [try_exec] returns [None] when
   the caller's budget is gone. *)
let shrink_with ~try_exec input verdict0 =
  let current = ref input and cur_verdict = ref verdict0 in
  let attempt candidate =
    if Exec.equal candidate !current || cost candidate >= cost !current then
      false
    else
      match try_exec candidate with
      | None -> raise Budget_exhausted
      | Some out ->
        if Exec.is_fail out.Exec.verdict then begin
          current := candidate;
          cur_verdict := Exec.verdict_string out.Exec.verdict;
          true
        end
        else false
  in
  (* ddmin over one perturbation vector: zero ever-smaller chunks, keeping
     each zeroing that still fails. The final normalize — trimming the
     all-zero tail — is re-verified like any other candidate, because the
     vectors cycle: truncation changes which entry delivery [i] sees. *)
  let ddmin_vector get set =
    let chunk = ref (max 1 (Array.length (get !current) / 2)) in
    while !chunk >= 1 do
      let i = ref 0 in
      while !i < Array.length (get !current) do
        let arr = get !current in
        let hi = min (Array.length arr) (!i + !chunk) in
        let has_nonzero = ref false in
        for j = !i to hi - 1 do
          if arr.(j) <> 0 then has_nonzero := true
        done;
        if !has_nonzero then begin
          let zeroed = Array.copy arr in
          for j = !i to hi - 1 do
            zeroed.(j) <- 0
          done;
          ignore (attempt (set !current zeroed))
        end;
        i := !i + !chunk
      done;
      chunk := if !chunk = 1 then 0 else !chunk / 2
    done;
    ignore
      (attempt
         { !current with
           Exec.perturb = Perturb.normalize !current.Exec.perturb })
  in
  let ddmin_tie () =
    ddmin_vector
      (fun i -> i.Exec.perturb.Perturb.tie)
      (fun i tie ->
        { i with Exec.perturb = { i.Exec.perturb with Perturb.tie } })
  in
  let ddmin_jitter () =
    ddmin_vector
      (fun i -> i.Exec.perturb.Perturb.jitter_us)
      (fun i jitter_us ->
        { i with Exec.perturb = { i.Exec.perturb with Perturb.jitter_us } })
  in
  (try
     let progress = ref true in
     while !progress do
       progress := false;
       (* Duration and slot count first — they dominate replay cost. *)
       while
         !current.Exec.duration_ms > min_duration_ms
         && attempt
              { !current with
                Exec.duration_ms =
                  max min_duration_ms (!current.Exec.duration_ms / 2) }
       do
         progress := true
       done;
       while
         !current.Exec.n_slots > 1
         && attempt
              { !current with Exec.n_slots = max 1 (!current.Exec.n_slots / 2) }
       do
         progress := true
       done;
       (* Knobs that are off in the minimal repro are noise. *)
       if !current.Exec.batch_us > 0 && attempt { !current with Exec.batch_us = 0 }
       then progress := true;
       if
         !current.Exec.disk_rate_pct > 0
         && attempt { !current with Exec.disk_rate_pct = 0 }
       then progress := true;
       let before = cost !current in
       ddmin_tie ();
       ddmin_jitter ();
       if cost !current < before then progress := true
     done
   with Budget_exhausted -> ());
  (!current, !cur_verdict)

let shrink ~budget input verdict0 =
  let spent = ref 0 in
  let try_exec i =
    if !spent >= budget then None
    else begin
      incr spent;
      Some (Exec.run i)
    end
  in
  let shrunk, verdict = shrink_with ~try_exec input verdict0 in
  (shrunk, verdict, !spent)

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

let is_gryff = function
  | Chaos.Audit.Gryff_lin | Chaos.Audit.Gryff_rsc -> true
  | _ -> false

let pick rng l = List.nth l (Sim.Rng.int rng (List.length l))

let mutate_vector rng arr ~len_cap ~value =
  let arr =
    if Array.length arr = 0 || Sim.Rng.bool rng 0.3 then begin
      (* Grow: fresh vector of a random length, old prefix preserved. *)
      let n = 1 + Sim.Rng.int rng len_cap in
      Array.init n (fun i -> if i < Array.length arr then arr.(i) else 0)
    end
    else Array.copy arr
  in
  let n_hits = 1 + Sim.Rng.int rng 3 in
  for _ = 1 to n_hits do
    arr.(Sim.Rng.int rng (Array.length arr)) <- value ()
  done;
  arr

let mutate rng (cfg : config) (i : Exec.input) =
  let i = ref i in
  let n_ops = 1 + Sim.Rng.int rng 2 in
  for _ = 1 to n_ops do
    match Sim.Rng.int rng 10 with
    | 0 -> i := { !i with Exec.seed = 1 + Sim.Rng.int rng 1_000_000 }
    | 1 -> i := { !i with Exec.nemesis_seed = 1 + Sim.Rng.int rng 1_000_000 }
    | 2 -> i := { !i with Exec.preset = pick rng cfg.presets }
    | 3 ->
      let tie =
        mutate_vector rng !i.Exec.perturb.Perturb.tie ~len_cap:32 ~value:(fun () ->
            Sim.Rng.int rng (2 * Perturb.max_tie + 1) - Perturb.max_tie)
      in
      i := { !i with Exec.perturb = { !i.Exec.perturb with Perturb.tie } }
    | 4 ->
      let jitter_us =
        mutate_vector rng !i.Exec.perturb.Perturb.jitter_us ~len_cap:32
          ~value:(fun () -> Sim.Rng.int rng (Perturb.max_jitter_us + 1))
      in
      i := { !i with Exec.perturb = { !i.Exec.perturb with Perturb.jitter_us } }
    | 5 ->
      let batch_us = pick rng [ 0; 0; 50; 200; 1_000 ] in
      let batch_max = pick rng [ 4; 16; 32 ] in
      i := { !i with Exec.batch_us; batch_max }
    | 6 ->
      (* Gryff keeps no durable stores; disk faults only bite Spanner. *)
      if not (is_gryff !i.Exec.protocol) then
        i := { !i with Exec.disk_rate_pct = pick rng [ 0; 50; 100; 200 ] }
    | 7 -> i := { !i with Exec.n_slots = 1 + Sim.Rng.int rng 16 }
    | 8 ->
      let n_keys =
        if is_gryff !i.Exec.protocol then pick rng [ 2; 4; 8; 16 ]
        else pick rng [ 16; 64; 256 ]
      in
      i := { !i with Exec.n_keys }
    | _ ->
      if is_gryff !i.Exec.protocol then
        i :=
          { !i with
            Exec.conflict_pct = pick rng [ 20; 50; 80; 100 ];
            write_pct = pick rng [ 20; 40; 60 ] }
  done;
  !i

(* ------------------------------------------------------------------ *)
(* The search loop                                                     *)
(* ------------------------------------------------------------------ *)

type entry = { e_input : Exec.input; mutable e_energy : int }

let fresh_energy = 8

let run (cfg : config) =
  if cfg.budget <= 0 then invalid_arg "Explore.Search.run: budget must be positive";
  if cfg.protocols = [] then invalid_arg "Explore.Search.run: no protocols";
  if cfg.presets = [] then invalid_arg "Explore.Search.run: no presets";
  let rng = Sim.Rng.make cfg.search_seed in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let execs = ref 0 and novel = ref 0 in
  let failures = ref [] and n_failures = ref 0 in
  let queue : entry list ref = ref [] in
  let counter name =
    match cfg.metrics with
    | None -> None
    | Some reg -> Some (Obs.Metrics.counter reg name)
  in
  let c_execs = counter "explore.execs"
  and c_novel = counter "explore.novel"
  and c_fails = counter "explore.fails"
  and c_shrink = counter "explore.shrink_execs"
  and c_corpus = counter "explore.corpus_saved" in
  let bump c n = Option.iter (fun c -> Obs.Metrics.add c n) c in
  (* Search spans live on a virtual timeline stitched from the trials'
     simulated durations, so the exported trace shows the search as one
     lane of back-to-back executions. *)
  let trace_clock = ref 0 in
  let exec_one input =
    if !execs >= cfg.budget then None
    else begin
      incr execs;
      bump c_execs 1;
      let out = Exec.run input in
      if Obs.Trace.enabled cfg.tracer then begin
        let name =
          Fmt.str "explore %s/%s #%d"
            (Chaos.Audit.protocol_name input.Exec.protocol)
            (Chaos.Nemesis.preset_name input.Exec.preset)
            !execs
        in
        let sp =
          Obs.Trace.begin_span cfg.tracer ~kind:Obs.Trace.Search ~name
            ~ts:!trace_clock
        in
        trace_clock := !trace_clock + max 1 out.Exec.run.Harness.Run.duration_us;
        Obs.Trace.end_span cfg.tracer sp ~ts:!trace_clock
      end;
      Some out
    end
  in
  let note_signature input out =
    if not (Hashtbl.mem seen out.Exec.signature) then begin
      Hashtbl.add seen out.Exec.signature ();
      incr novel;
      bump c_novel 1;
      queue := !queue @ [ { e_input = input; e_energy = fresh_energy } ]
    end
  in
  let handle_fail ~found_at input out =
    bump c_fails 1;
    let verdict = Exec.verdict_string out.Exec.verdict in
    let shrunk, shrunk_verdict, shrink_execs =
      if not cfg.shrink then (input, verdict, 0)
      else begin
        (* Per-failure ceiling on top of the global budget: a stubborn
           minimization cannot starve the rest of the search. *)
        let spent = ref 0 in
        let try_exec i =
          if !spent >= cfg.shrink_budget then None
          else
            match exec_one i with
            | None -> None
            | Some o ->
              incr spent;
              bump c_shrink 1;
              Some o
        in
        let s, v = shrink_with ~try_exec input verdict in
        (s, v, !spent)
      end
    in
    let corpus_file =
      match cfg.corpus_dir with
      | None -> None
      | Some dir ->
        let entry = { Corpus.input = shrunk; expected = shrunk_verdict } in
        let path = Filename.concat dir (Corpus.file_name entry) in
        Corpus.save path entry;
        bump c_corpus 1;
        Some path
    in
    incr n_failures;
    failures :=
      { input; verdict; shrunk; shrunk_verdict; shrink_execs; found_at;
        corpus_file }
      :: !failures
  in
  let consider input =
    match exec_one input with
    | None -> false
    | Some out ->
      note_signature input out;
      if Exec.is_fail out.Exec.verdict then
        handle_fail ~found_at:!execs input out;
      true
  in
  (* Seed phase: one unperturbed trial per protocol × preset. *)
  let continue = ref true in
  List.iter
    (fun protocol ->
      List.iter
        (fun preset ->
          if
            !continue && !n_failures < cfg.max_failures
            && not (consider { (cfg.base protocol) with Exec.preset })
          then continue := false)
        cfg.presets)
    cfg.protocols;
  (* Mutation rounds: round-robin over queue entries with energy left; a
     dry lap (every entry at zero) refunds one unit each so the search
     keeps moving until the budget is gone. *)
  while !continue && !execs < cfg.budget && !n_failures < cfg.max_failures do
    let live = List.filter (fun e -> e.e_energy > 0) !queue in
    let pool =
      if live <> [] then live
      else begin
        List.iter (fun e -> e.e_energy <- 1) !queue;
        !queue
      end
    in
    match pool with
    | [] -> continue := false
    | _ ->
      let e = List.nth pool (Sim.Rng.int rng (List.length pool)) in
      e.e_energy <- e.e_energy - 1;
      if not (consider (mutate rng cfg e.e_input)) then continue := false
  done;
  {
    execs = !execs;
    signatures = Hashtbl.length seen;
    novel = !novel;
    failures = List.rev !failures;
  }
