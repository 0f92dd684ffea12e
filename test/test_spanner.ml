(* Tests for the Spanner / Spanner-RSS protocols: basic transaction
   semantics, the Fig. 4 blocking/non-blocking behaviour that motivates
   RSS, wound-wait under contention, and end-to-end witness checking of
   randomized runs in both modes. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mk ?(mode = Spanner.Config.Rss) ?(seed = 42) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config = Spanner.Config.wan3 ~mode () in
  let cluster = Spanner.Cluster.create engine ~rng config in
  (engine, cluster)

let run = Sim.Engine.run

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_config_replication_latency () =
  let c = Spanner.Config.wan3 ~mode:Spanner.Config.Rss () in
  (* CA leader replicates to VA (62) and IR (136); majority needs the
     nearest ack: 62 ms. *)
  check int "CA majority" 62_000 (Spanner.Config.replicate_us c ~shard:0);
  check int "VA majority" 62_000 (Spanner.Config.replicate_us c ~shard:1);
  check int "IR majority" 68_000 (Spanner.Config.replicate_us c ~shard:2)

let test_config_coordinator_choice () =
  let c = Spanner.Config.wan3 ~mode:Spanner.Config.Rss () in
  let coord, lat =
    Spanner.Config.estimate_commit_latency_us c ~client_site:0 ~participants:[ 0; 1 ]
  in
  (* Client in CA, participants CA+VA. Coord CA: VA path = 31+62+31 = 124,
     then CA repl 62 + 0.1 back => ~186.1; Coord VA: CA path = 0.1+62+31,
     client->VA 31; slowest 93.1, + VA repl 62 + 31 back = 186.1. Either
     choice ~186ms. *)
  check bool "latency plausible" true (lat > 150_000 && lat < 220_000);
  check bool "coordinator among participants" true (coord = 0 || coord = 1)

(* The estimate as it was written before it was staged: per call, from
   the config's RTT matrix. [Config.estimator] must agree with it on every
   ordered participant list (order matters: the first of equally fast
   coordinators wins) from every site. *)
let reference_estimate (c : Spanner.Config.t) ~client_site ~participants =
  let module C = Spanner.Config in
  let one_way a b = Sim.Engine.ms c.C.rtt_ms.(a).(b) / 2 in
  let latency_with_coord coord =
    let prepare_paths =
      List.filter_map
        (fun p ->
          if p = coord then None
          else
            Some
              (one_way client_site c.C.leader_site.(p)
              + C.replicate_us c ~shard:p
              + one_way c.C.leader_site.(p) c.C.leader_site.(coord)))
        participants
    in
    let to_coord = one_way client_site c.C.leader_site.(coord) in
    List.fold_left max to_coord prepare_paths
    + C.replicate_us c ~shard:coord
    + one_way c.C.leader_site.(coord) client_site
  in
  match participants with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun (best, best_lat) coord ->
        let lat = latency_with_coord coord in
        if lat < best_lat then (coord, lat) else (best, best_lat))
      (first, latency_with_coord first)
      rest

let test_config_staged_estimator () =
  (* Every ordered list of distinct shards, empty list excluded. *)
  let rec arrangements pool =
    List.concat_map
      (fun x ->
        let rest = List.filter (( <> ) x) pool in
        [ x ] :: List.map (fun l -> x :: l) (arrangements rest))
      pool
  in
  let agree name (c : Spanner.Config.t) =
    let est = Spanner.Config.estimator c in
    let lists = arrangements (List.init c.Spanner.Config.n_shards Fun.id) in
    for client_site = 0 to Array.length c.Spanner.Config.rtt_ms - 1 do
      List.iter
        (fun participants ->
          let label =
            Printf.sprintf "%s from site %d over [%s]" name client_site
              (String.concat ";" (List.map string_of_int participants))
          in
          check (Alcotest.pair int int) label
            (reference_estimate c ~client_site ~participants)
            (est ~client_site ~participants))
        lists
    done;
    List.length lists
  in
  check int "wan3 lists" 15 (agree "wan3" (Spanner.Config.wan3 ~mode:Spanner.Config.Rss ()));
  check int "single-dc lists" 64
    (agree "single_dc"
       (Spanner.Config.single_dc ~mode:Spanner.Config.Rss ~n_shards:4
          ~service_time_us:0 ()))

let test_single_dc_config () =
  let c = Spanner.Config.single_dc ~mode:Spanner.Config.Strict ~n_shards:8 ~service_time_us:20 () in
  check int "shards" 8 c.Spanner.Config.n_shards;
  check int "epsilon zero" 0 c.Spanner.Config.epsilon_us;
  check int "replication fast" 200 (Spanner.Config.replicate_us c ~shard:0)

(* ------------------------------------------------------------------ *)
(* Basic transactions                                                  *)
(* ------------------------------------------------------------------ *)

let test_rw_then_ro () =
  let engine, cluster = mk () in
  let client = Spanner.Client.create cluster ~site:0 in
  let got = ref None in
  Spanner.Client.rw_kv client ~read_keys:[] ~writes:[ (1, 101); (2, 102) ] (fun res ->
      Spanner.Client.ro client ~keys:[ 1; 2 ] (fun ro ->
          got := Some (res, ro)));
  run engine;
  match !got with
  | None -> Alcotest.fail "transactions did not complete"
  | Some (res, ro) ->
    check bool "ro sees both writes" true
      (List.for_all
         (fun (key, v) -> v = Some (100 + key))
         ro.Spanner.Protocol.ro_reads);
    check int "two keys" 2 (List.length ro.Spanner.Protocol.ro_reads);
    check bool "commit ts positive" true (res.Spanner.Protocol.rw_commit_ts > 0)

let test_ro_empty_db () =
  let engine, cluster = mk () in
  let client = Spanner.Client.create cluster ~site:1 in
  let got = ref None in
  Spanner.Client.ro client ~keys:[ 7; 8; 9 ] (fun ro -> got := Some ro);
  run engine;
  match !got with
  | None -> Alcotest.fail "ro did not complete"
  | Some ro ->
    check bool "all nil" true
      (List.for_all (fun (_, v) -> v = None) ro.Spanner.Protocol.ro_reads)

let test_rw_reads_previous_write () =
  let engine, cluster = mk () in
  let c1 = Spanner.Client.create cluster ~site:0 in
  let c2 = Spanner.Client.create cluster ~site:2 in
  let observed = ref [] in
  Spanner.Client.rw_kv c1 ~read_keys:[] ~writes:[ (5, 55) ] (fun _ ->
      Spanner.Client.rw_kv c2 ~read_keys:[ 5 ] ~writes:[ (5, 56) ] (fun r2 ->
          observed := [ r2.Spanner.Protocol.rw_reads ]));
  run engine;
  match !observed with
  | [ [ (5, Some v) ] ] -> check int "rw read sees first write" 55 v
  | _ -> Alcotest.fail "unexpected read results"

let test_commit_wait_bounds_latency () =
  (* A write-only transaction still pays commit wait (~2ε) plus replication:
     it can never complete faster than replication + commit wait. *)
  let engine, cluster = mk () in
  let client = Spanner.Client.create cluster ~site:0 in
  let t0 = ref 0 and t1 = ref 0 in
  Spanner.Client.rw client ~read_keys:[] ~write_keys:[ 0 ] (fun _ ->
      t1 := Sim.Engine.now engine);
  t0 := Sim.Engine.now engine;
  run engine;
  let lat = !t1 - !t0 in
  (* shard 0 leader in CA, client in CA: ~0.1 ms + max(62 ms replication,
     commit wait — which overlaps replication, as in Spanner) + 0.1 ms. *)
  check bool "latency >= replication" true (lat >= 62_000);
  check bool "latency sane" true (lat < 150_000)

let test_session_read_your_writes () =
  let engine, cluster = mk () in
  let client = Spanner.Client.create cluster ~site:0 in
  let ok = ref false in
  let rec chain n =
    if n = 0 then ok := true
    else
      Spanner.Client.rw_kv client ~read_keys:[] ~writes:[ (n, 1000 + n) ] (fun _ ->
          Spanner.Client.ro client ~keys:[ n ] (fun ro ->
              (match ro.Spanner.Protocol.ro_reads with
              | [ (_, Some v) ] when v = 1000 + n -> ()
              | _ -> Alcotest.fail "did not read own write");
              chain (n - 1)))
  in
  chain 5;
  run engine;
  check bool "chain completed" true !ok

(* ------------------------------------------------------------------ *)
(* Fig. 4: RSS RO returns old values instead of blocking               *)
(* ------------------------------------------------------------------ *)

(* Start a RW transaction on [keys], and while its 2PC is in flight, issue a
   causally-unrelated RO on the same keys. Returns (ro latency, ro values,
   rw commit time ts). The RW commit is slowed naturally by WAN replication;
   we time the RO issued mid-flight. *)
let concurrent_ro_experiment ~mode =
  let engine, cluster = mk ~mode () in
  let writer = Spanner.Client.create cluster ~site:0 in
  let reader = Spanner.Client.create cluster ~site:1 in
  let keys = [ 0; 1 ] in
  (* two shards: CA and VA *)
  let ro_latency = ref (-1) in
  let ro_values = ref [] in
  let rw_done_at = ref (-1) in
  Spanner.Client.rw writer ~read_keys:[] ~write_keys:keys (fun _ ->
      rw_done_at := Sim.Engine.now engine);
  (* Prepares reach both shards within ~35 ms (one-way + jitter); commit
     takes several RTTs. Fire the RO at 80 ms: safely mid-2PC. *)
  Sim.Engine.schedule engine ~after:80_000 (fun () ->
      let t0 = Sim.Engine.now engine in
      Spanner.Client.ro reader ~keys (fun ro ->
          ro_latency := Sim.Engine.now engine - t0;
          ro_values := ro.Spanner.Protocol.ro_reads));
  run engine;
  (!ro_latency, !ro_values, !rw_done_at)

let test_fig4_rss_does_not_block () =
  let lat, values, rw_done = concurrent_ro_experiment ~mode:Spanner.Config.Rss in
  check bool "rw completed" true (rw_done > 0);
  (* The RO must return quickly: one round to the furthest shard (VA->CA
     31ms each way; client in VA, shard1 local) — well under the RW's
     remaining commit time. It reads the OLD (nil) values. *)
  check bool "ro fast (no blocking)" true (lat < 75_000);
  check bool "ro returned old values" true (List.for_all (fun (_, v) -> v = None) values)

let test_fig4_strict_blocks () =
  let lat_strict, values, _ = concurrent_ro_experiment ~mode:Spanner.Config.Strict in
  let lat_rss, _, _ = concurrent_ro_experiment ~mode:Spanner.Config.Rss in
  (* Strict mode must wait for the conflicting prepared transaction to
     resolve. (It may still return the old values afterwards — the RW is
     concurrent with the RO, and t_read precedes the commit timestamp — the
     cost of strict serializability here is the blocking, Fig. 4.) *)
  check bool "strict slower than rss" true (lat_strict > lat_rss + 20_000);
  check bool "values form a snapshot" true
    (List.for_all (fun (_, v) -> v = None) values
    || List.for_all (fun (_, v) -> v <> None) values)

let test_rss_ro_blocks_when_tee_passed () =
  (* If the RO starts after the writer's earliest end estimate has passed,
     even RSS must block (condition t_ee <= t_read in Alg. 2). We fire the
     RO very late in the 2PC, just before commit lands: t_ee has passed. *)
  let engine, cluster = mk ~mode:Spanner.Config.Rss () in
  let writer = Spanner.Client.create cluster ~site:0 in
  let reader = Spanner.Client.create cluster ~site:0 in
  let rw_done_at = ref (-1) in
  let ro_values = ref [] in
  Spanner.Client.rw writer ~read_keys:[] ~write_keys:[ 0; 1 ] (fun _ ->
      rw_done_at := Sim.Engine.now engine);
  (* Issue the RO ~5ms before the RW is expected to finish (~190-210ms). The
     estimate t_ee is necessarily <= the actual end, so the shard blocks and
     the RO observes the writes. *)
  Sim.Engine.schedule engine ~after:185_000 (fun () ->
      Spanner.Client.ro reader ~keys:[ 0; 1 ] (fun ro ->
          ro_values := ro.Spanner.Protocol.ro_reads));
  run engine;
  check bool "rw completed" true (!rw_done_at > 0);
  check bool "late ro observes the writes" true
    (!ro_values <> [] && List.for_all (fun (_, v) -> v <> None) !ro_values)

let test_rss_session_forces_observation () =
  (* A reader that already observed the writer's commit (via t_min) must see
     it in subsequent ROs even while a second conflicting RW is in flight:
     the tp <= t_min condition. Simpler session property: after reading a
     value, re-reading never goes backwards, even mid-contention. *)
  let engine, cluster = mk ~mode:Spanner.Config.Rss () in
  let writer = Spanner.Client.create cluster ~site:0 in
  let reader = Spanner.Client.create cluster ~site:1 in
  let violations = ref 0 and reads_done = ref 0 in
  let last_seen = ref None in
  let rec write_loop n k =
    if n = 0 then k ()
    else
      Spanner.Client.rw writer ~read_keys:[ 3 ] ~write_keys:[ 3 ] (fun _ ->
          write_loop (n - 1) k)
  in
  let rec read_loop n =
    if n > 0 then
      Spanner.Client.ro reader ~keys:[ 3 ] (fun ro ->
          incr reads_done;
          (match (ro.Spanner.Protocol.ro_reads, !last_seen) with
          | [ (_, v) ], Some prev ->
            (* writer ids increase over time; going backwards = violation *)
            let n' = match v with None -> -1 | Some x -> x in
            let p = match prev with None -> -1 | Some x -> x in
            if n' < p then incr violations;
            last_seen := Some v
          | [ (_, v) ], None -> last_seen := Some v
          | _ -> ());
          read_loop (n - 1))
  in
  write_loop 10 (fun () -> ());
  read_loop 20;
  run engine;
  check bool "some reads happened" true (!reads_done = 20);
  check int "session never reads backwards" 0 !violations

let test_snapshot_reads_time_travel () =
  let engine, cluster = mk () in
  let c = Spanner.Client.create cluster ~site:0 in
  let history = ref [] in
  Spanner.Client.rw_kv c ~read_keys:[] ~writes:[ (9, 1) ] (fun r1 ->
      Spanner.Client.rw_kv c ~read_keys:[] ~writes:[ (9, 2) ] (fun r2 ->
          let t1 = r1.Spanner.Protocol.rw_commit_ts in
          let t2 = r2.Spanner.Protocol.rw_commit_ts in
          (* Read before t1, between t1 and t2, and at t2. *)
          Spanner.Client.snapshot_read c ~ts:(t1 - 1) ~keys:[ 9 ] (fun v0 ->
              Spanner.Client.snapshot_read c ~ts:t1 ~keys:[ 9 ] (fun v1 ->
                  Spanner.Client.snapshot_read c ~ts:t2 ~keys:[ 9 ] (fun v2 ->
                      history := [ v0; v1; v2 ])))));
  run engine;
  match !history with
  | [ [ (9, None) ]; [ (9, Some 1) ]; [ (9, Some 2) ] ] -> ()
  | _ -> Alcotest.fail "snapshot reads did not time-travel"

let test_snapshot_read_blocks_on_prepared () =
  (* A snapshot read at a timestamp a prepared transaction could still
     commit under must wait for the outcome. *)
  let engine, cluster = mk () in
  let writer = Spanner.Client.create cluster ~site:0 in
  let reader = Spanner.Client.create cluster ~site:1 in
  let got = ref None in
  Spanner.Client.rw_kv writer ~read_keys:[] ~writes:[ (0, 5); (1, 6) ] (fun _ -> ());
  (* At 150 ms the commit timestamp (~134 ms + eps) is already chosen but the
     shards are still prepared (commit wait + propagation run to ~210+ ms).
     A snapshot read at 500 ms covers the commit timestamp, so it must block
     on the prepared transactions and then observe the writes. *)
  Sim.Engine.schedule engine ~after:150_000 (fun () ->
      Spanner.Client.snapshot_read reader ~ts:500_000 ~keys:[ 0; 1 ] (fun vs ->
          got := Some (Sim.Engine.now engine, vs)));
  run engine;
  match !got with
  | Some (at, vs) ->
    check bool "waited for the commit" true (at > 200_000);
    check bool "sees the writes" true
      (List.sort compare vs = [ (0, Some 5); (1, Some 6) ])
  | None -> Alcotest.fail "did not complete"

(* ------------------------------------------------------------------ *)
(* Prepared-write index                                                *)
(* ------------------------------------------------------------------ *)

(* Random sequences of prepared-table mutations on one shard. After every
   step, [conflicting_prepared] must return exactly what a full scan of the
   table returns, element by element and in order (callers start in-doubt
   resolution in that order), and it must scan only when some requested key
   has a prepared writer. *)
type prep_op =
  | Add of int * int * int list  (* txn slot, tp, keys written *)
  | Resolve of int * bool  (* txn slot, commit? *)
  | Rebuild of (int * [ `Prepare of int * int list | `Commit | `Abort ]) list

let n_prep_keys = 6
let n_prep_txns = 8

let pp_prep_op = function
  | Add (i, tp, ks) ->
    Fmt.str "add %d tp=%d [%a]" i tp Fmt.(list ~sep:comma int) ks
  | Resolve (i, c) -> Fmt.str "resolve %d %s" i (if c then "commit" else "abort")
  | Rebuild es ->
    Fmt.str "rebuild [%s]"
      (String.concat "; "
         (List.map
            (fun (i, e) ->
              match e with
              | `Prepare (tp, ks) ->
                Fmt.str "prepare %d tp=%d [%a]" i tp Fmt.(list ~sep:comma int) ks
              | `Commit -> Fmt.str "commit %d" i
              | `Abort -> Fmt.str "abort %d" i)
            es))

let gen_prep_ops =
  let open QCheck.Gen in
  let keys =
    map
      (fun ks -> List.sort_uniq compare (List.map (fun k -> k mod n_prep_keys) ks))
      (list_size (int_range 1 3) nat)
  in
  let slot = int_bound (n_prep_txns - 1) and tp = int_range 1 20 in
  let op =
    frequency
      [
        (5, map3 (fun i tp ks -> Add (i, tp, ks)) slot tp keys);
        (3, map2 (fun i c -> Resolve (i, c)) slot bool);
        ( 1,
          map
            (fun es -> Rebuild es)
            (list_size (int_range 0 8)
               (pair slot
                  (frequency
                     [
                       (3, map2 (fun tp ks -> `Prepare (tp, ks)) tp keys);
                       (1, return `Commit);
                       (1, return `Abort);
                     ]))) );
      ]
  in
  list_size (int_range 1 40) op

let prop_conflicting_prepared_matches_scan =
  QCheck.Test.make ~name:"conflicting_prepared = full scan, in order" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "\n" (List.map pp_prep_op ops))
       gen_prep_ops)
    (fun ops ->
      let _engine, cluster = mk () in
      let ctx = Spanner.Cluster.ctx cluster in
      let sh = ctx.Spanner.Protocol.shards.(0) in
      (* Rebuild re-acquires survivors' write locks; overlapping survivors
         would otherwise route a wound to a coordinator. *)
      sh.Spanner.Shard.wound_prepared_hook := (fun _ -> ());
      let txns =
        Array.init n_prep_txns (fun i ->
            (Spanner.Types.fresh ctx.Spanner.Protocol.txns ~proc:0
               ~priority:(i, Spanner.Types.tiebreak ctx.Spanner.Protocol.txns))
              .Spanner.Types.id)
      in
      (* Every commit gets a fresh, larger timestamp, so store writes stay
         monotonic across rebuilds too. *)
      let clock = ref 1_000 in
      let tick () = incr clock; !clock in
      let writes i ks = List.map (fun k -> (k, txns.(i))) ks in
      let prepared i tp ks =
        {
          Spanner.Shard.p_txn = txns.(i);
          p_tp = tp;
          p_tee = 0;
          p_writes = writes i ks;
          p_waiters = [];
          p_coord = 0;
          p_participants = [ 0 ];
        }
      in
      let scan ~keys ~max_tp =
        Spanner.Shard.fold_prepared sh
          (fun p acc ->
            if p.Spanner.Shard.p_tp <= max_tp
               && List.exists (fun (k, _) -> List.mem k keys) p.Spanner.Shard.p_writes
            then p :: acc
            else acc)
          []
      in
      let txn_ids = List.map (fun (p : Spanner.Shard.prepared) -> p.Spanner.Shard.p_txn) in
      let queries =
        List.init n_prep_keys (fun k -> [ k ])
        @ [ [ 0; 2; 4 ]; [ 5; 1 ]; List.init n_prep_keys Fun.id ]
      in
      let agrees () =
        List.for_all
          (fun keys ->
            List.for_all
              (fun max_tp ->
                let before = sh.Spanner.Shard.n_prepared_scans in
                let got = Spanner.Shard.conflicting_prepared sh ~keys ~max_tp in
                let scanned = sh.Spanner.Shard.n_prepared_scans - before in
                let has_writer = scan ~keys ~max_tp:max_int <> [] in
                let want = scan ~keys ~max_tp in
                List.length got = List.length want
                && List.for_all2 ( == ) got want
                && scanned = if has_writer then 1 else 0)
              [ 0; 10; max_int ])
          queries
      in
      let step = function
        | Add (i, tp, ks) -> Spanner.Shard.add_prepared sh (prepared i tp ks)
        | Resolve (i, commit) ->
          Spanner.Shard.resolve_prepared sh ~txn:txns.(i)
            (if commit then Spanner.Types.Committed (tick ()) else Spanner.Types.Aborted)
        | Rebuild es ->
          let last_writes = Hashtbl.create 8 in
          let entries =
            List.map
              (fun (i, e) ->
                match e with
                | `Prepare (tp, ks) ->
                  Hashtbl.replace last_writes i ks;
                  Spanner.Types.Rprepare
                    {
                      r_txn = txns.(i);
                      r_tp = tp;
                      r_tee = 0;
                      r_writes = writes i ks;
                      r_coord = 0;
                      r_participants = [ 0 ];
                    }
                | (`Commit | `Abort) as o ->
                  let ks = Option.value (Hashtbl.find_opt last_writes i) ~default:[] in
                  Spanner.Types.Routcome
                    {
                      r_txn = txns.(i);
                      r_out =
                        (if o = `Commit then Spanner.Types.Committed (tick ())
                         else Spanner.Types.Aborted);
                      r_writes = writes i ks;
                      r_max_tee = 0;
                    })
              es
          in
          Spanner.Shard.rebuild sh ~entries
      in
      let ok = ref (agrees ()) in
      List.iter
        (fun op ->
          if !ok then begin
            step op;
            ok :=
              agrees ()
              && txn_ids (scan ~keys:(List.init n_prep_keys Fun.id) ~max_tp:max_int)
                 |> List.sort compare
                 = Spanner.Shard.prepared_txns sh
          end)
        ops;
      !ok)

let test_conflicting_prepared_skips_scan () =
  let _engine, cluster = mk () in
  let sh = (Spanner.Cluster.ctx cluster).Spanner.Protocol.shards.(0) in
  let p =
    {
      Spanner.Shard.p_txn = 7;
      p_tp = 5;
      p_tee = 0;
      p_writes = [ (1, 7); (2, 7) ];
      p_waiters = [];
      p_coord = 0;
      p_participants = [ 0 ];
    }
  in
  Spanner.Shard.add_prepared sh p;
  let scans () = sh.Spanner.Shard.n_prepared_scans in
  check bool "other keys: empty" true
    (Spanner.Shard.conflicting_prepared sh ~keys:[ 0; 3 ] ~max_tp:max_int = []);
  check int "no scan" 0 (scans ());
  check bool "written key: found" true
    (Spanner.Shard.conflicting_prepared sh ~keys:[ 3; 2 ] ~max_tp:5 = [ p ]);
  check int "one scan" 1 (scans ());
  check bool "tp above max_tp: empty after a scan" true
    (Spanner.Shard.conflicting_prepared sh ~keys:[ 1 ] ~max_tp:4 = []);
  check int "two scans" 2 (scans ());
  Spanner.Shard.resolve_prepared sh ~txn:7 Spanner.Types.Aborted;
  check bool "resolved: empty" true
    (Spanner.Shard.conflicting_prepared sh ~keys:[ 1; 2 ] ~max_tp:max_int = []);
  check int "no scan once resolved" 2 (scans ())

let test_rebuild_keeps_wounded_prepare_locks () =
  (* A prepared txn keeps its write lock at a new leader even if an older
     reader wounded it before the leader died: a prepared txn can still
     commit, so a read there must wait for the outcome, not read the
     version before the in-doubt write. *)
  let engine, cluster = mk () in
  let ctx = Spanner.Cluster.ctx cluster in
  let sh = ctx.Spanner.Protocol.shards.(0) in
  let txns = ctx.Spanner.Protocol.txns in
  let key = 5 in
  let old_writer = Spanner.Types.fresh txns ~proc:0 ~priority:(0, 0) in
  let log =
    [
      Spanner.Types.Routcome
        {
          r_txn = old_writer.Spanner.Types.id;
          r_out = Spanner.Types.Committed 10;
          r_writes = [ (key, 100) ];
          r_max_tee = 0;
        };
    ]
  in
  Spanner.Shard.rebuild sh ~entries:log;
  (* The old leader: [txn] write-locks the key and prepares; an older
     reader queues behind it and wounds it. *)
  let writer = Spanner.Types.fresh txns ~proc:1 ~priority:(50, 1) in
  let txn = writer.Spanner.Types.id in
  Spanner.Locks.acquire_write sh.Spanner.Shard.locks ~key ~txn
    ~priority:writer.Spanner.Types.priority (fun _ -> ());
  run engine;
  let prepare =
    Spanner.Types.Rprepare
      {
        r_txn = txn;
        r_tp = 20;
        r_tee = 0;
        r_writes = [ (key, 200) ];
        r_coord = 1;
        r_participants = [ 0; 1 ];
      }
  in
  Spanner.Shard.add_prepared sh
    {
      Spanner.Shard.p_txn = txn;
      p_tp = 20;
      p_tee = 0;
      p_writes = [ (key, 200) ];
      p_waiters = [];
      p_coord = 1;
      p_participants = [ 0; 1 ];
    };
  let early = Spanner.Types.fresh txns ~proc:2 ~priority:(10, 2) in
  Spanner.Locks.acquire_read sh.Spanner.Shard.locks ~key
    ~txn:early.Spanner.Types.id ~priority:early.Spanner.Types.priority
    (fun _ -> ());
  run engine;
  check bool "the prepare was wounded" true (Spanner.Types.is_wounded txns txn);
  (* The leader dies; its successor rebuilds from the log. *)
  Spanner.Shard.rebuild sh ~entries:(log @ [ prepare ]);
  check bool "prepare survives" true (Spanner.Shard.prepared sh txn <> None);
  check bool "write lock re-acquired" true
    (Spanner.Locks.holds_write sh.Spanner.Shard.locks ~key ~txn);
  let reader = Spanner.Types.fresh txns ~proc:3 ~priority:(60, 3) in
  let seen = ref None in
  Spanner.Locks.acquire_read sh.Spanner.Shard.locks ~key
    ~txn:reader.Spanner.Types.id ~priority:reader.Spanner.Types.priority
    (fun _ ->
      seen :=
        Option.map
          (fun v -> v.Spanner.Types.value)
          (Spanner.Shard.read_version_at sh ~key ~ts:max_int));
  run engine;
  check bool "read waits for the outcome" true (!seen = None);
  Spanner.Shard.resolve_prepared sh ~txn (Spanner.Types.Committed 20);
  Spanner.Locks.release_all sh.Spanner.Shard.locks ~txn;
  run engine;
  check (Alcotest.option int) "read sees the in-doubt write" (Some 200) !seen

(* ------------------------------------------------------------------ *)
(* Contention / wound-wait                                             *)
(* ------------------------------------------------------------------ *)

let test_contention_drains () =
  (* Many clients hammering the same two keys: wound-wait must keep the
     system live (every transaction eventually commits; the engine drains). *)
  let engine, cluster = mk ~seed:7 () in
  let committed = ref 0 in
  for i = 0 to 19 do
    let client = Spanner.Client.create cluster ~site:(i mod 3) in
    Sim.Engine.schedule engine ~after:(i * 1_000) (fun () ->
        Spanner.Client.rw client ~read_keys:[ 0; 1 ] ~write_keys:[ 0; 1 ] (fun _ ->
            incr committed))
  done;
  Sim.Engine.run ~max_events:5_000_000 engine;
  check int "all committed" 20 !committed;
  check int "engine drained" 0 (Sim.Engine.pending engine)

let test_contention_serializes_conflicts () =
  (* Conflicting read-modify-write transactions on one key must see strictly
     increasing chains: each reads the previous writer. *)
  let engine, cluster = mk ~seed:11 () in
  let seen = ref [] in
  for i = 0 to 9 do
    let client = Spanner.Client.create cluster ~site:(i mod 3) in
    Sim.Engine.schedule engine ~after:(i * 500) (fun () ->
        Spanner.Client.rw client ~read_keys:[ 4 ] ~write_keys:[ 4 ] (fun res ->
            seen := (res.Spanner.Protocol.rw_commit_ts, res.Spanner.Protocol.rw_reads) :: !seen))
  done;
  Sim.Engine.run ~max_events:5_000_000 engine;
  check int "all committed" 10 (List.length !seen);
  (* Sort by commit ts; reads must chain: each sees some earlier writer. *)
  let by_ts = List.sort compare !seen in
  let rec distinct = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && distinct rest
    | [ _ ] | [] -> true
  in
  check bool "commit timestamps strictly increase" true (distinct by_ts);
  match Spanner.Cluster.check_history cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_replica_crash_tolerated () =
  (* One shard replicated at sites 0 (leader), 1 and 2: majority 2. With
     site 2 down, prepares and commits still replicate via site 1. *)
  let engine = Sim.Engine.create () in
  let base = Spanner.Config.wan3 ~mode:Spanner.Config.Rss () in
  let config =
    {
      base with
      Spanner.Config.n_shards = 1;
      leader_site = [| 0 |];
      replica_sites = [| [ 1; 2 ] |];
    }
  in
  let cluster = Spanner.Cluster.create engine ~rng:(Sim.Rng.make 3) config in
  Sim.Net.set_down (Spanner.Cluster.net cluster) 2;
  let c = Spanner.Client.create cluster ~site:0 in
  let seen = ref None in
  Spanner.Client.rw_kv c ~read_keys:[] ~writes:[ (0, 7) ] (fun _ ->
      Spanner.Client.ro c ~keys:[ 0 ] (fun ro -> seen := Some ro.Spanner.Protocol.ro_reads));
  Sim.Engine.run ~max_events:2_000_000 engine;
  check bool "commit survives a replica crash" true (!seen = Some [ (0, Some 7) ]);
  match Spanner.Cluster.check_history cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Fences                                                              *)
(* ------------------------------------------------------------------ *)

let test_fence_waits_out_window () =
  let engine, cluster = mk ~mode:Spanner.Config.Rss () in
  let client = Spanner.Client.create cluster ~site:0 in
  let fenced_at = ref (-1) in
  Spanner.Client.rw client ~read_keys:[] ~write_keys:[ 0 ] (fun res ->
      let tc = res.Spanner.Protocol.rw_commit_ts in
      Spanner.Client.fence client (fun () ->
          fenced_at := Sim.Engine.now engine;
          (* After the fence, tc + L must definitely be in the past. *)
          check bool "fence waited past t_min + L" true
            (!fenced_at > tc + 400_000)));
  run engine;
  check bool "fence completed" true (!fenced_at > 0)

let test_fence_noop_when_old () =
  let engine, cluster = mk ~mode:Spanner.Config.Rss () in
  let client = Spanner.Client.create cluster ~site:0 in
  (* t_min = 0: the window 0 + L has passed once now > L + ε. *)
  let done_at = ref (-1) in
  Sim.Engine.schedule engine ~after:500_000 (fun () ->
      let t0 = Sim.Engine.now engine in
      Spanner.Client.fence client (fun () ->
          done_at := Sim.Engine.now engine - t0));
  run engine;
  check int "no wait" 0 !done_at

(* ------------------------------------------------------------------ *)
(* Randomized end-to-end runs + witness checking                       *)
(* ------------------------------------------------------------------ *)

let random_run ~mode ~seed ~n_clients ~n_keys ~until =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config = Spanner.Config.wan3 ~mode () in
  let cluster = Spanner.Cluster.create engine ~rng config in
  let wl_rng = Sim.Rng.split rng in
  let retwis = Workload.Retwis.create ~rng:wl_rng ~n_keys ~theta:0.9 in
  let body ~client:_ k =
    ignore k;
    ()
  in
  ignore body;
  let clients =
    Array.init n_clients (fun i -> Spanner.Client.create cluster ~site:(i mod 3))
  in
  Workload.Client_model.closed_loop engine ~n_clients
    ~body:(fun ~client k ->
      let c = clients.(client) in
      let txn = Workload.Retwis.sample retwis in
      if Workload.Retwis.is_read_only txn then
        Spanner.Client.ro c ~keys:txn.Workload.Retwis.read_keys (fun _ -> k ())
      else
        Spanner.Client.rw c ~read_keys:txn.Workload.Retwis.read_keys
          ~write_keys:txn.Workload.Retwis.write_keys (fun _ -> k ()))
    ~until ();
  Sim.Engine.run ~max_events:20_000_000 engine;
  cluster

let test_random_run_rss_witness () =
  let cluster =
    random_run ~mode:Spanner.Config.Rss ~seed:3 ~n_clients:12 ~n_keys:2000
      ~until:(Sim.Engine.sec 20.0)
  in
  let stats = Spanner.Cluster.stats cluster in
  check bool "meaningful load" true (stats.Spanner.Cluster.rw_committed > 100);
  check bool "ROs ran" true (stats.Spanner.Cluster.ro_count > 100);
  match Spanner.Cluster.check_history cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("RSS witness violated: " ^ m)

let test_random_run_strict_witness () =
  let cluster =
    random_run ~mode:Spanner.Config.Strict ~seed:5 ~n_clients:12 ~n_keys:2000
      ~until:(Sim.Engine.sec 20.0)
  in
  let stats = Spanner.Cluster.stats cluster in
  check bool "meaningful load" true (stats.Spanner.Cluster.rw_committed > 100);
  match Spanner.Cluster.check_history cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("strict witness violated: " ^ m)

let test_rss_avoids_blocking_vs_strict () =
  let c_rss =
    random_run ~mode:Spanner.Config.Rss ~seed:9 ~n_clients:12 ~n_keys:20
      ~until:(Sim.Engine.sec 20.0)
  in
  let c_strict =
    random_run ~mode:Spanner.Config.Strict ~seed:9 ~n_clients:12 ~n_keys:20
      ~until:(Sim.Engine.sec 20.0)
  in
  let s_rss = Spanner.Cluster.stats c_rss in
  let s_strict = Spanner.Cluster.stats c_strict in
  (* The same seed yields comparable load; RSS must block ROs at shards
     less often than strict. *)
  check bool "strict blocks ROs" true (s_strict.Spanner.Cluster.ro_blocked_at_shards > 0);
  check bool "rss blocks less" true
    (s_rss.Spanner.Cluster.ro_blocked_at_shards
    < s_strict.Spanner.Cluster.ro_blocked_at_shards)


let test_stop_failure_history () =
  (* A writer that dies before its response: its committed writes stay
     visible; the history (with the incomplete record) must still verify,
     and readers may observe the orphaned values. *)
  let engine, cluster = mk ~mode:Spanner.Config.Rss ~seed:51 () in
  let ghost = Spanner.Client.create cluster ~site:0 in
  let reader = Spanner.Client.create cluster ~site:1 in
  Spanner.Client.rw_detached ghost ~write_keys:[ 3; 4 ];
  let saw = ref 0 in
  Sim.Engine.schedule engine ~after:800_000 (fun () ->
      Spanner.Client.ro reader ~keys:[ 3; 4 ] (fun ro ->
          saw :=
            List.length
              (List.filter (fun (_, v) -> v <> None) ro.Spanner.Protocol.ro_reads)));
  run engine;
  check int "orphaned writes visible" 2 !saw;
  match Spanner.Cluster.check_history cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("history with stop failure: " ^ m)

let test_determinism () =
  (* Identical seeds must give bit-identical runs — the reproducibility
     guarantee every experiment relies on. *)
  let run () =
    let c =
      random_run ~mode:Spanner.Config.Rss ~seed:31 ~n_clients:6 ~n_keys:500
        ~until:(Sim.Engine.sec 5.0)
    in
    let s = Spanner.Cluster.stats c in
    ( s.Spanner.Cluster.rw_committed,
      s.Spanner.Cluster.ro_count,
      s.Spanner.Cluster.rw_aborted_attempts,
      s.Spanner.Cluster.messages,
      Array.length (Spanner.Cluster.records c) )
  in
  let a = run () and b = run () in
  check bool "identical stats" true (a = b)

let test_small_run_exact_search () =
  (* Cross-validate the timestamp witness against the exact search checker
     on a small run: convert the recorded history and check the
     corresponding model. *)
  List.iter
    (fun (mode, model) ->
      let engine = Sim.Engine.create () in
      let rng = Sim.Rng.make 77 in
      let cluster = Spanner.Cluster.create engine ~rng (Spanner.Config.wan3 ~mode ()) in
      let clients = Array.init 3 (fun i -> Spanner.Client.create cluster ~site:i) in
      let wl = Sim.Rng.split rng in
      Workload.Client_model.closed_loop engine ~n_clients:3
        ~body:(fun ~client k ->
          let c = clients.(client) in
          if Sim.Rng.bool wl 0.5 then
            Spanner.Client.ro c ~keys:[ Sim.Rng.int wl 3 ] (fun _ -> k ())
          else
            Spanner.Client.rw c ~read_keys:[ Sim.Rng.int wl 3 ]
              ~write_keys:[ Sim.Rng.int wl 3 ] (fun _ -> k ()))
        ~until:900_000 ();
      Sim.Engine.run ~max_events:5_000_000 engine;
      (match Spanner.Cluster.check_history cluster with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("witness: " ^ m));
      let records = Spanner.Cluster.records cluster in
      let n = Array.length records in
      check bool "small but non-trivial" true (n > 4 && n < 30);
      let txns =
        Array.to_list records
        |> List.mapi (fun i (r : Rss_core.Witness.txn) ->
               {
                 Rss_core.Txn_history.id = i;
                 proc = r.Rss_core.Witness.proc;
                 reads = r.Rss_core.Witness.reads;
                 writes = r.Rss_core.Witness.writes;
                 inv = r.Rss_core.Witness.inv;
                 resp = (if r.Rss_core.Witness.resp = max_int then None else Some r.Rss_core.Witness.resp);
               })
      in
      let h = Rss_core.Txn_history.make txns in
      check bool
        (Rss_core.Check_txn.model_name model ^ " (search) accepts the run")
        true
        (Rss_core.Check_txn.satisfies ~max_states:5_000_000 h model = Some true))
    [
      (Spanner.Config.Rss, Rss_core.Check_txn.Rss);
      (Spanner.Config.Strict, Rss_core.Check_txn.Strict_serializable);
    ]

(* ------------------------------------------------------------------ *)
(* Allocation and lock-table footprint                                 *)
(* ------------------------------------------------------------------ *)

(* Minor words per RO and per RW txn on a seeded single-DC Spanner-RSS
   cluster (four shards, 10 µs service time) with one client at site 0:
   each txn runs to completion before the next, so no lock is contended
   and no prepare is skipped. A round of 100 txns of each kind warms the
   engine's and the history's arrays, then 1000 of each are counted,
   exactly (an RW's count is not the same for every txn). The
   RO reads keys on three shards; the RW reads two keys and writes two,
   one of them read, over three shards. The figures are the dev
   profile's (tier-1 builds every module with [-opaque]); a change that
   moves them names the move. *)
let spanner_words_per_txn () =
  let engine = Sim.Engine.create () in
  let config =
    Spanner.Config.single_dc ~mode:Spanner.Config.Rss ~n_shards:4 ~service_time_us:10 ()
  in
  let cluster = Spanner.Cluster.create engine ~rng:(Sim.Rng.make 42) config in
  let client = Spanner.Client.create cluster ~site:0 in
  let ro () = Spanner.Client.ro client ~keys:[ 1; 2; 3 ] ignore in
  let rw () = Spanner.Client.rw client ~read_keys:[ 1; 2 ] ~write_keys:[ 2; 3 ] ignore in
  let round op =
    for _ = 1 to 100 do
      op ();
      run engine
    done
  in
  round ro;
  round rw;
  let per_txn op =
    let before = Gc.minor_words () in
    for _ = 1 to 10 do
      round op
    done;
    int_of_float (Gc.minor_words () -. before)
  in
  let ro_words = per_txn ro in
  let rw_words = per_txn rw in
  (ro_words, rw_words)

let test_allocation_per_txn () =
  let ro, rw = spanner_words_per_txn () in
  check int "ro: minor words per 1000 txns" 495_000 ro;
  check int "rw: minor words per 1000 txns" 1_812_738 rw

(* A lock entry leaves its shard's table once it has no holder and no
   waiter, so a drained run ends with every table empty. The run mirrors
   [Harness.spanner_dc] (four shards, 10 µs service time, 16 closed-loop
   clients at site 0, uniform Retwis over 2 000 keys), which does not hand
   out its cluster: 0.3 simulated seconds of wound-wait contention, then
   the drain. *)
let test_lock_tables_drain_empty () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make 7 in
  let config =
    Spanner.Config.single_dc ~mode:Spanner.Config.Rss ~n_shards:4 ~service_time_us:10 ()
  in
  let cluster = Spanner.Cluster.create engine ~rng config in
  let retwis = Workload.Retwis.create ~rng:(Sim.Rng.split rng) ~n_keys:2_000 ~theta:0.0 in
  let clients = Array.init 16 (fun _ -> Spanner.Client.create cluster ~site:0) in
  let completed = ref 0 in
  Workload.Client_model.closed_loop engine ~n_clients:16
    ~body:(fun ~client k ->
      let c = clients.(client) in
      let txn = Workload.Retwis.sample retwis in
      let finish _ =
        incr completed;
        k ()
      in
      if Workload.Retwis.is_read_only txn then
        Spanner.Client.ro c ~keys:txn.Workload.Retwis.read_keys finish
      else
        Spanner.Client.rw c ~read_keys:txn.Workload.Retwis.read_keys
          ~write_keys:txn.Workload.Retwis.write_keys finish)
    ~until:(Sim.Engine.sec 0.3) ();
  run engine;
  let ctx = Spanner.Cluster.ctx cluster in
  let stats = Spanner.Cluster.stats cluster in
  check bool "ran thousands of txns" true (!completed > 2_000);
  check bool "with wounds" true (stats.Spanner.Cluster.wounds > 0);
  Array.iteri
    (fun i sh ->
      check int
        (Printf.sprintf "shard %d: live lock entries" i)
        0
        (Spanner.Locks.live_entries sh.Spanner.Shard.locks))
    ctx.Spanner.Protocol.shards

let suites =
  [
    ( "spanner.config",
      [
        Alcotest.test_case "replication latency" `Quick test_config_replication_latency;
        Alcotest.test_case "coordinator choice" `Quick test_config_coordinator_choice;
        Alcotest.test_case "staged estimator matches per-call estimate" `Quick
          test_config_staged_estimator;
        Alcotest.test_case "single-dc config" `Quick test_single_dc_config;
      ] );
    ( "spanner.basic",
      [
        Alcotest.test_case "rw then ro" `Quick test_rw_then_ro;
        Alcotest.test_case "ro on empty db" `Quick test_ro_empty_db;
        Alcotest.test_case "rw reads previous write" `Quick test_rw_reads_previous_write;
        Alcotest.test_case "commit wait bounds latency" `Quick
          test_commit_wait_bounds_latency;
        Alcotest.test_case "session read-your-writes" `Quick
          test_session_read_your_writes;
        Alcotest.test_case "snapshot reads time-travel" `Quick
          test_snapshot_reads_time_travel;
        Alcotest.test_case "snapshot read blocks on prepared" `Quick
          test_snapshot_read_blocks_on_prepared;
      ] );
    ( "spanner.fig4",
      [
        Alcotest.test_case "rss ro does not block" `Quick test_fig4_rss_does_not_block;
        Alcotest.test_case "strict ro blocks" `Quick test_fig4_strict_blocks;
        Alcotest.test_case "rss blocks once t_ee passed" `Quick
          test_rss_ro_blocks_when_tee_passed;
        Alcotest.test_case "session monotone reads" `Quick
          test_rss_session_forces_observation;
      ] );
    ( "spanner.prepared",
      [
        QCheck_alcotest.to_alcotest prop_conflicting_prepared_matches_scan;
        Alcotest.test_case "skips the scan without a prepared writer" `Quick
          test_conflicting_prepared_skips_scan;
        Alcotest.test_case "rebuild keeps wounded prepares' locks" `Quick
          test_rebuild_keeps_wounded_prepare_locks;
      ] );
    ( "spanner.contention",
      [
        Alcotest.test_case "wound-wait drains" `Quick test_contention_drains;
        Alcotest.test_case "conflicts serialized" `Quick
          test_contention_serializes_conflicts;
      ] );
    ( "spanner.failures",
      [
        Alcotest.test_case "replica crash tolerated" `Quick
          test_replica_crash_tolerated;
      ] );
    ( "spanner.fence",
      [
        Alcotest.test_case "fence waits out window" `Quick test_fence_waits_out_window;
        Alcotest.test_case "fence no-op when old" `Quick test_fence_noop_when_old;
      ] );
    ( "spanner.e2e",
      [
        Alcotest.test_case "rss run passes witness" `Slow test_random_run_rss_witness;
        Alcotest.test_case "strict run passes witness" `Slow
          test_random_run_strict_witness;
        Alcotest.test_case "rss blocks less than strict" `Slow
          test_rss_avoids_blocking_vs_strict;
        Alcotest.test_case "small run vs exact search checker" `Slow
          test_small_run_exact_search;
        Alcotest.test_case "determinism" `Slow test_determinism;
        Alcotest.test_case "stop failure history" `Quick test_stop_failure_history;
      ] );
    ( "spanner.footprint",
      [
        Alcotest.test_case "minor words per op" `Quick test_allocation_per_txn;
        Alcotest.test_case "lock tables drain empty" `Quick test_lock_tables_drain_empty;
      ] );
  ]
