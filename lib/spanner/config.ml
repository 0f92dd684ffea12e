type mode = Strict | Rss

type t = {
  mode : mode;
  n_shards : int;
  rtt_ms : float array array;
  leader_site : int array;
  replica_sites : int list array;
  client_sites : int array;
  epsilon_us : int;
  service_time_us : int;
  jitter : float;
  fence_l_us : int;
  tee_pad_us : int;
}

let wan3 ~mode () =
  let rtt_ms = Sim.Topology.wan3.Sim.Topology.rtt_ms in
  {
    mode;
    n_shards = 3;
    rtt_ms;
    leader_site = [| 0; 1; 2 |];
    replica_sites = [| [ 1; 2 ]; [ 0; 2 ]; [ 0; 1 ] |];
    client_sites = [| 0; 1; 2 |];
    epsilon_us = 10_000;
    service_time_us = 0;
    jitter = 0.02;
    fence_l_us = 400_000;
    tee_pad_us = 0;
  }

let single_dc ~mode ~n_shards ~service_time_us () =
  (* Everything in one site; replicas are distinct machines but latency is
     the in-DC 0.2 ms. We keep a single logical site. *)
  let rtt_ms = (Sim.Topology.single_dc ~n:1).Sim.Topology.rtt_ms in
  {
    mode;
    n_shards;
    rtt_ms;
    leader_site = Array.make n_shards 0;
    replica_sites = Array.make n_shards [ 0; 0 ];
    client_sites = [| 0 |];
    epsilon_us = 0;
    service_time_us;
    jitter = 0.02;
    fence_l_us = 50_000;
    tee_pad_us = 0;
  }

let site_name t site =
  if Array.length t.rtt_ms = 3 then Sim.Topology.(site_name wan3 site)
  else Fmt.str "site%d" site

let shard_of_key t key = key mod t.n_shards

let rtt_us t a b = Sim.Engine.ms t.rtt_ms.(a).(b)

let one_way_us t a b = rtt_us t a b / 2

let replicate_us t ~shard =
  let leader = t.leader_site.(shard) in
  let rtts =
    List.map (fun site -> rtt_us t leader site) t.replica_sites.(shard)
    |> List.sort compare
  in
  let n = 1 + List.length t.replica_sites.(shard) in
  let needed = (n / 2) + 1 - 1 in
  if needed = 0 then 0
  else List.nth rtts (needed - 1)

(* Every term of the estimate depends only on the static layout, so the
   one-way delays and majority replication times are computed once; the
   returned function only adds and compares them. The first of equally
   fast coordinators wins. *)
let estimator t =
  let n_sites = Array.length t.rtt_ms in
  let one_way =
    Array.init n_sites (fun a -> Array.init n_sites (fun b -> one_way_us t a b))
  in
  let repl = Array.init t.n_shards (fun shard -> replicate_us t ~shard) in
  let leader = t.leader_site in
  (* The slowest path into [coord]: the client's own, or a participant's
     prepare (client to its leader, replication, leader to [coord]). *)
  let rec slowest client coord acc = function
    | [] -> acc
    | p :: ps ->
      let acc =
        if p = coord then acc
        else
          Int.max acc
            (one_way.(client).(leader.(p)) + repl.(p)
            + one_way.(leader.(p)).(leader.(coord)))
      in
      slowest client coord acc ps
  in
  let latency client participants coord =
    let lc = leader.(coord) in
    slowest client coord one_way.(client).(lc) participants
    + repl.(coord) + one_way.(lc).(client)
  in
  let rec best client participants coord lat = function
    | [] -> (coord, lat)
    | c :: cs ->
      let l = latency client participants c in
      if l < lat then best client participants c l cs
      else best client participants coord lat cs
  in
  fun ~client_site ~participants ->
    match participants with
    | [] -> invalid_arg "estimate_commit_latency_us: no participants"
    | first :: rest ->
      best client_site participants first
        (latency client_site participants first)
        rest

let estimate_commit_latency_us t = estimator t
