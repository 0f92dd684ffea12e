type protocol = Spanner_strict | Spanner_rss | Gryff_lin | Gryff_rsc

let protocols = [ Spanner_strict; Spanner_rss; Gryff_lin; Gryff_rsc ]

let protocol_name = function
  | Spanner_strict -> "spanner"
  | Spanner_rss -> "spanner-rss"
  | Gryff_lin -> "gryff"
  | Gryff_rsc -> "gryff-rsc"

let protocol_of_string = function
  | "spanner" -> Some Spanner_strict
  | "spanner-rss" -> Some Spanner_rss
  | "gryff" -> Some Gryff_lin
  | "gryff-rsc" -> Some Gryff_rsc
  | _ -> None

let model_name = function
  | Spanner_strict -> "strict serializability"
  | Spanner_rss -> "RSS"
  | Gryff_lin -> "linearizability (per key)"
  | Gryff_rsc -> "RSC (per key)"

type deployment =
  | Spanner_wan of Spanner.Config.t
  | Gryff_wan of Gryff.Config.t

let deployment = function
  | Spanner_strict -> Spanner_wan (Spanner.Config.wan3 ~mode:Strict ())
  | Spanner_rss -> Spanner_wan (Spanner.Config.wan3 ~mode:Rss ())
  | Gryff_lin -> Gryff_wan (Gryff.Config.wan5 ~mode:Lin ())
  | Gryff_rsc -> Gryff_wan (Gryff.Config.wan5 ~mode:Rsc ())

let nemesis_schedule protocol preset ~duration_s ~seed =
  let n_sites, leaders, epsilon_us =
    match deployment protocol with
    | Spanner_wan c ->
      ( Array.length c.rtt_ms,
        Array.fold_left
          (fun acc s -> if List.mem s acc then acc else acc @ [ s ])
          [] c.leader_site,
        c.epsilon_us )
    | Gryff_wan c -> (Array.length c.rtt_ms, [], 0)
  in
  Nemesis.generate preset ~n_sites ~leaders ~epsilon_us
    ~duration_us:(Sim.Engine.sec duration_s) ~seed ()

(* ------------------------------------------------------------------ *)
(* Storage fault injection                                             *)
(* ------------------------------------------------------------------ *)

type disk_faults = {
  df_spec : Sim.Durable.Faults.spec;
  df_seed : int;
  df_scrub_period_us : int;
  df_integrity : bool;
}

let default_disk_faults ?spec ~seed () =
  {
    df_spec =
      (match spec with Some s -> s | None -> Sim.Durable.Faults.default_spec);
    df_seed = seed;
    df_scrub_period_us = 250_000;
    df_integrity = true;
  }

(* Install the control before the cluster exists — stores register with the
   ambient control at creation time. *)
let install_disk_faults = function
  | None -> None
  | Some df ->
    Some
      (Sim.Durable.Faults.install ~spec:df.df_spec ~integrity:df.df_integrity
         ~seed:df.df_seed ())

(* Arm the background scrub pass: one store verified per period, the scan
   costed on its own station so it competes for simulated CPU. *)
let arm_scrub engine ~tracer ~dctl ~disk_faults ~duration_s =
  match (dctl, disk_faults) with
  | Some ctl, Some df when df.df_scrub_period_us > 0 ->
    let station = Sim.Station.create engine ~service_time_us:40 in
    Some
      (Sim.Scrub.start engine ~station ~ctl ~tracer
         ~period_us:df.df_scrub_period_us
         ~until_us:(Sim.Engine.sec duration_s) ())
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Sweeps for operations whose acknowledgement a fault swallowed        *)
(* ------------------------------------------------------------------ *)

let key_name = string_of_int

(* If attempt [txn] committed, its writes are visible at the shards even
   though the client never heard back — record it as incomplete
   (resp = max_int: no real-time obligations, reads not checked), exactly
   how complete(α) treats a stopped client. Returns whether recorded. *)
let sweep_spanner_txn cluster ~proc ~inv ~writes ~txn =
  match Spanner.Cluster.txn_outcome cluster txn with
  | Some (Spanner.Types.Committed tc) ->
    Spanner.Cluster.record cluster
      {
        Rss_core.Witness.proc;
        reads = [];
        writes = List.map (fun (k, v) -> (key_name k, v)) writes;
        inv;
        resp = max_int;
        ts = tc;
        rank = 0;
      };
    true
  | Some Spanner.Types.Aborted | None -> false

(* A Gryff write whose propagate phase started may sit at some replicas and
   be observed even though the acks never came back — same convention. *)
let sweep_gryff_write cluster ~proc ~inv ~key ~value ~cs =
  Gryff.Cluster.record cluster
    {
      Gryff.Cluster.g_proc = proc;
      g_kind = Gryff.Cluster.Write;
      g_key = key;
      g_observed = None;
      g_written = Some value;
      g_cs = cs;
      g_inv = inv;
      g_resp = max_int;
    }

(* ------------------------------------------------------------------ *)
(* Trace serialization and stale-read controls: Spanner               *)
(* ------------------------------------------------------------------ *)

let spanner_trace records =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (w : Rss_core.Witness.txn) ->
      Buffer.add_string buf
        (Fmt.str "p%d inv=%d resp=%d ts=%d rank=%d R%a W%a\n"
           w.Rss_core.Witness.proc w.Rss_core.Witness.inv w.Rss_core.Witness.resp
           w.Rss_core.Witness.ts w.Rss_core.Witness.rank
           Fmt.(Dump.list (Dump.pair string (Dump.option int)))
           w.Rss_core.Witness.reads
           Fmt.(Dump.list (Dump.pair string int))
           w.Rss_core.Witness.writes))
    records;
  Buffer.contents buf

(* The stale-read controls corrupt the first completed read to the version
   its key held just before the one it saw — or, when none exists, to a
   value no op wrote, illegal in any serialization — and re-check with the
   caller's [check]: the audit's proof that the checker catches stale
   reads. [writes] lists (key, (order, value)) for every write; [compare]
   orders versions. *)
let stale_read_control ~writes ~compare ~eligible ~corrupt ~check records =
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun (k, ov) ->
      let prev = Option.value (Hashtbl.find_opt by_key k) ~default:[] in
      Hashtbl.replace by_key k (ov :: prev))
    writes;
  let phantom = 1 + List.fold_left (fun acc (_, (_, v)) -> max acc v) 0 writes in
  let stale k observed =
    let rec walk prev = function
      | (_, v') :: _ when Some v' = observed -> prev
      | (_, v') :: rest -> walk (Some v') rest
      | [] -> None
    in
    match Hashtbl.find_opt by_key k with
    | Some ws when observed <> None -> (
      match walk None (List.sort compare ws) with
      | Some v' when Some v' <> observed -> v'
      | _ -> phantom)
    | _ -> phantom
  in
  let records = Array.copy records in
  let rec first i =
    if i = Array.length records then None
    else if eligible records.(i) then begin
      records.(i) <- corrupt stale records.(i);
      Some (check records)
    end
    else first (i + 1)
  in
  first 0

(* Renamed [judge]: the open below would shadow [check]. *)
let spanner_stale_control ~check:judge records =
  let open Rss_core.Witness in
  stale_read_control
    ~writes:
      (List.concat_map
         (fun w -> List.map (fun (k, v) -> (k, (w.ts, v))) w.writes)
         (Array.to_list records))
    ~compare:Stdlib.compare
    ~eligible:(fun w -> w.resp <> max_int && w.reads <> [])
    ~corrupt:(fun stale w ->
      match w.reads with
      | (k, ov) :: rest -> { w with reads = (k, Some (stale k ov)) :: rest }
      | [] -> w)
    ~check:judge records

(* ------------------------------------------------------------------ *)
(* Trace serialization and stale-read controls: Gryff                 *)
(* ------------------------------------------------------------------ *)

let gryff_trace records =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (r : Gryff.Cluster.record) ->
      Buffer.add_string buf
        (Fmt.str "p%d %s k%d obs=%a wr=%a cs=%a inv=%d resp=%d\n" r.Gryff.Cluster.g_proc
           (match r.Gryff.Cluster.g_kind with
           | Gryff.Cluster.Read -> "r"
           | Gryff.Cluster.Write -> "w"
           | Gryff.Cluster.Rmw -> "m")
           r.Gryff.Cluster.g_key
           Fmt.(Dump.option int)
           r.Gryff.Cluster.g_observed
           Fmt.(Dump.option int)
           r.Gryff.Cluster.g_written Gryff.Carstamp.pp r.Gryff.Cluster.g_cs
           r.Gryff.Cluster.g_inv r.Gryff.Cluster.g_resp))
    records;
  Buffer.contents buf

let gryff_stale_control ~check history =
  let open Gryff.Cluster in
  stale_read_control
    ~writes:
      (List.filter_map
         (fun r -> Option.map (fun v -> (r.g_key, (r.g_cs, v))) r.g_written)
         (Array.to_list history))
    ~compare:(fun (a, _) (b, _) -> Gryff.Carstamp.compare a b)
    ~eligible:(fun r -> r.g_kind = Read && r.g_resp <> max_int)
    ~corrupt:(fun stale r ->
      { r with g_observed = Some (stale r.g_key r.g_observed) })
    ~check history
