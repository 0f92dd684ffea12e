type key = string
type value = int

type version = { v_idx : int; v_value : value }

type t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  base_latency_us : int;
  max_staleness_us : int;
  versions : (key, version list) Hashtbl.t;  (* newest first *)
  mutable log_len : int;
  mutable commit_times : (int * int) list;  (* (log idx, real time), newest first *)
  mutable next_proc : int;
  mutable record_list : Rss_core.Witness.txn list;
}

type session = { store : t; s_proc : int; mutable seen : int }

let create engine ~rng ?(base_latency_us = 1_000) ?(max_staleness_us = 100_000) () =
  {
    engine;
    rng;
    base_latency_us;
    max_staleness_us;
    versions = Hashtbl.create 1024;
    log_len = 0;
    commit_times = [];
    next_proc = 0;
    record_list = [];
  }

let session store =
  let s = { store; s_proc = store.next_proc; seen = -1 } in
  store.next_proc <- store.next_proc + 1;
  s

let proc s = s.s_proc

let read_at t key idx =
  match Hashtbl.find_opt t.versions key with
  | None -> None
  | Some vs ->
    List.find_opt (fun v -> v.v_idx <= idx) vs
    |> Option.map (fun v -> v.v_value)

let record t ~proc ~reads ~writes ~inv ~ts =
  t.record_list <-
    {
      Rss_core.Witness.proc;
      reads;
      writes;
      inv;
      resp = Sim.Engine.now t.engine;
      ts;
      rank = Rss_core.Witness.mutator_rank ~writes;
    }
    :: t.record_list

let rw s ~reads ~writes k =
  let t = s.store in
  let inv = Sim.Engine.now t.engine in
  Sim.Engine.schedule t.engine ~after:t.base_latency_us (fun () ->
      (* Serialize at the head: read latest state, append the writes. *)
      let idx = t.log_len in
      let observed = List.map (fun key -> (key, read_at t key (idx - 1))) reads in
      List.iter
        (fun (key, v) ->
          let prev = try Hashtbl.find t.versions key with Not_found -> [] in
          Hashtbl.replace t.versions key ({ v_idx = idx; v_value = v } :: prev))
        writes;
      t.log_len <- idx + 1;
      t.commit_times <- (idx, Sim.Engine.now t.engine) :: t.commit_times;
      s.seen <- idx;
      Sim.Engine.schedule t.engine ~after:t.base_latency_us (fun () ->
          record t ~proc:s.s_proc ~reads:observed ~writes ~inv ~ts:(2 * idx);
          k observed))

let ro s ~keys k =
  let t = s.store in
  let inv = Sim.Engine.now t.engine in
  Sim.Engine.schedule t.engine ~after:t.base_latency_us (fun () ->
      (* Serve from a lagged replica: the freshest prefix whose transactions
         committed more than a sampled staleness ago — but never behind the
         session. *)
      let staleness = Sim.Rng.int t.rng (t.max_staleness_us + 1) in
      let horizon = Sim.Engine.now t.engine - staleness in
      let lagged =
        let rec newest_before = function
          | [] -> -1
          | (idx, at) :: rest -> if at <= horizon then idx else newest_before rest
        in
        newest_before t.commit_times
      in
      let view = max s.seen lagged in
      let observed = List.map (fun key -> (key, read_at t key view)) keys in
      s.seen <- view;
      Sim.Engine.schedule t.engine ~after:t.base_latency_us (fun () ->
          (* ROs serialize between the RW at [view] and the one at [view+1]. *)
          record t ~proc:s.s_proc ~reads:observed ~writes:[] ~inv ~ts:((2 * view) + 1);
          k observed))

let records t = Array.of_list (List.rev t.record_list)

let check_history t =
  Result.map ignore (Rss_core.Check_graph.check ~mode:`Sequential (records t))
