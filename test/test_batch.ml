(* Batching guarantees: (1) envelope accounting is exact — every delivered
   envelope costs the fixed header plus the sum of its members' bytes, drops
   are charged per envelope, duplication never double-counts wire bytes;
   (2) with batching off, the [Harness.Env] path reproduces the golden
   seeded digests byte-for-byte; (3) batched runs are themselves
   deterministic under a fixed seed, and the online checker still passes on
   them. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

module W = Rss_core.Witness

(* {1 Envelope accounting}

   Drive a raw 3-site network with only [Net.post] traffic under a random
   policy and random per-link faults, drain the engine, and reconcile the
   network's wire counters against what the delivered handlers observed.
   Handlers see their index within the envelope, so index-0 invocations
   count envelope deliveries (including duplicates) from the outside. *)

type observed = {
  mutable member_bytes : int;  (* bytes of every delivered member *)
  mutable members : int;  (* delivered member handlers *)
  mutable idx0 : int;  (* envelope deliveries, duplicates included *)
}

let drive ~seed ~loss ~dup ~n_msgs =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let net =
    Sim.Net.create e ~rng
      ~rtt_ms:(Sim.Topology.single_dc ~n:3).Sim.Topology.rtt_ms ()
  in
  let policy =
    {
      Sim.Net.batch_us = 1 + Sim.Rng.int rng 200;
      batch_max = 1 + Sim.Rng.int rng 16;
      adaptive = Sim.Rng.bool rng 0.5;
    }
  in
  Sim.Net.set_batching net (Some policy);
  for s = 0 to 2 do
    for d = 0 to 2 do
      if loss > 0.0 then Sim.Net.set_loss net ~src:s ~dst:d loss;
      if dup > 0.0 then Sim.Net.set_dup net ~src:s ~dst:d dup
    done
  done;
  let ob = { member_bytes = 0; members = 0; idx0 = 0 } in
  let posted_bytes = ref 0 in
  (* Spread the posts over simulated time so deadline, size-cap and idle
     flushes all occur. *)
  for i = 0 to n_msgs - 1 do
    let at = Sim.Rng.int rng 5_000 in
    Sim.Engine.schedule e ~after:at (fun () ->
        let src = Sim.Rng.int rng 3 and dst = Sim.Rng.int rng 3 in
        let bytes = 16 + Sim.Rng.int rng 240 in
        posted_bytes := !posted_bytes + bytes;
        ignore i;
        Sim.Net.post ~bytes net ~src ~dst (fun idx ->
            if idx = 0 then ob.idx0 <- ob.idx0 + 1;
            ob.members <- ob.members + 1;
            ob.member_bytes <- ob.member_bytes + bytes))
  done;
  Sim.Engine.run e;
  (net, ob, !posted_bytes)

let test_accounting_under_loss () =
  for seed = 1 to 60 do
    let net, ob, _posted =
      drive ~seed ~loss:(if seed mod 3 = 0 then 0.3 else 0.05) ~dup:0.0
        ~n_msgs:400
    in
    (* Every posted message was flushed into some envelope: the deadline
       timer armed at first enqueue guarantees no buffer outlives the run. *)
    check int (Fmt.str "seed %d: members flushed" seed) 400
      (Sim.Net.batch_members net);
    (* Drop is per envelope, charged exactly once. *)
    check int
      (Fmt.str "seed %d: envelopes = sent + dropped" seed)
      (Sim.Net.batch_envelopes net)
      (Sim.Net.messages_sent net + Sim.Net.messages_dropped net);
    (* A delivered envelope is observed from outside as one index-0 handler. *)
    check int
      (Fmt.str "seed %d: deliveries = sent" seed)
      (Sim.Net.messages_sent net) ob.idx0;
    (* The wire invariant: envelope bytes = fixed header + member bytes,
       summed over delivered envelopes only. *)
    check int
      (Fmt.str "seed %d: bytes = header*sent + member bytes" seed)
      ((Sim.Net.envelope_header_bytes * Sim.Net.messages_sent net)
      + ob.member_bytes)
      (Sim.Net.bytes_sent net)
  done

let test_accounting_under_dup () =
  for seed = 61 to 100 do
    let net, ob, posted = drive ~seed ~loss:0.0 ~dup:0.3 ~n_msgs:300 in
    check int (Fmt.str "seed %d: members flushed" seed) 300
      (Sim.Net.batch_members net);
    (* No drops: every envelope delivered, charged once. *)
    check int
      (Fmt.str "seed %d: every envelope sent" seed)
      (Sim.Net.batch_envelopes net)
      (Sim.Net.messages_sent net);
    (* Duplication re-delivers but never re-charges the wire... *)
    check int
      (Fmt.str "seed %d: bytes charged once" seed)
      ((Sim.Net.envelope_header_bytes * Sim.Net.messages_sent net) + posted)
      (Sim.Net.bytes_sent net);
    (* ...and each duplicated envelope is one extra index-0 delivery. *)
    check int
      (Fmt.str "seed %d: duplicates re-deliver" seed)
      (Sim.Net.messages_sent net + Sim.Net.messages_duplicated net)
      ob.idx0;
    check bool
      (Fmt.str "seed %d: dup battery has teeth" seed)
      true
      (Sim.Net.messages_duplicated net > 0 && ob.members > 300)
  done

let test_policy_validation () =
  let e = Sim.Engine.create () in
  let net =
    Sim.Net.create e ~rng:(Sim.Rng.make 1)
      ~rtt_ms:(Sim.Topology.single_dc ~n:2).Sim.Topology.rtt_ms ()
  in
  let rejects p =
    match Sim.Net.set_batching net (Some p) with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool "non-positive batch_us rejected" true
    (rejects { Sim.Net.batch_us = 0; batch_max = 8; adaptive = false });
  check bool "non-positive batch_max rejected" true
    (rejects { Sim.Net.batch_us = 50; batch_max = 0; adaptive = false });
  Sim.Net.set_batching net
    (Some { Sim.Net.batch_us = 50; batch_max = 8; adaptive = true });
  check bool "policy installed" true (Sim.Net.batching net <> None);
  Sim.Net.set_batching net None;
  check bool "policy removed" true (Sim.Net.batching net = None)

(* {1 Batching off is byte-identical}

   The same golden digests as test_scale, but reached through the
   [Harness.Env] record with batching explicitly off — pinning that an
   uninstalled policy leaves the seeded schedule untouched. *)

let digest_spanner ~env () =
  let r =
    Harness.spanner_dc ~env ~mode:Spanner.Config.Rss ~n_shards:3
      ~service_time_us:20 ~n_clients:16 ~n_keys:200 ~duration_s:2.0 ~seed:11 ()
  in
  let b = Buffer.create 65536 in
  (match r.Harness.Run.records with
  | Harness.Run.Spanner_txns a ->
    Array.iter
      (fun (x : W.txn) ->
        Buffer.add_string b
          (Printf.sprintf "p%d i%d r%d t%d k%d" x.W.proc x.W.inv x.W.resp
             x.W.ts x.W.rank);
        List.iter
          (fun (k, v) ->
            Buffer.add_string b
              (Printf.sprintf " R%s=%s" k
                 (match v with None -> "nil" | Some v -> string_of_int v)))
          x.W.reads;
        List.iter
          (fun (k, v) -> Buffer.add_string b (Printf.sprintf " W%s=%d" k v))
          x.W.writes;
        Buffer.add_char b '\n')
      a
  | Harness.Run.Gryff_ops _ -> assert false);
  Buffer.add_string b (Printf.sprintf "duration=%d\n" r.Harness.Run.duration_us);
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_gryff ~env () =
  let r =
    Harness.gryff_wan ~env ~n_clients:8 ~mode:Gryff.Config.Rsc ~conflict:0.2
      ~write_ratio:0.4 ~n_keys:500 ~duration_s:2.0 ~seed:13 ()
  in
  let b = Buffer.create 65536 in
  (match r.Harness.Run.records with
  | Harness.Run.Gryff_ops a ->
    Array.iter
      (fun (g : Gryff.Cluster.record) ->
        Buffer.add_string b
          (Printf.sprintf "p%d %s k%d o%s w%s cs%d.%d.%d i%d r%d\n"
             g.Gryff.Cluster.g_proc
             (match g.Gryff.Cluster.g_kind with
             | Gryff.Cluster.Read -> "rd"
             | Gryff.Cluster.Write -> "wr"
             | Gryff.Cluster.Rmw -> "rmw")
             g.Gryff.Cluster.g_key
             (match g.Gryff.Cluster.g_observed with
             | None -> "-"
             | Some v -> string_of_int v)
             (match g.Gryff.Cluster.g_written with
             | None -> "-"
             | Some v -> string_of_int v)
             g.Gryff.Cluster.g_cs.Gryff.Carstamp.ts
             g.Gryff.Cluster.g_cs.Gryff.Carstamp.cid
             g.Gryff.Cluster.g_cs.Gryff.Carstamp.rmwc g.Gryff.Cluster.g_inv
             g.Gryff.Cluster.g_resp))
      a
  | Harness.Run.Spanner_txns _ -> assert false);
  Buffer.add_string b (Printf.sprintf "duration=%d\n" r.Harness.Run.duration_us);
  Digest.to_hex (Digest.string (Buffer.contents b))

let off_env = Harness.Env.(default |> with_check `No_check)

let test_batching_off_is_byte_identical () =
  (* Constants shared with test_scale — the goldens predate batching. *)
  check string "spanner digest via Env, batching off"
    "371676f632a207ac160041a6f67542ce"
    (digest_spanner ~env:off_env ());
  check string "gryff digest via Env, batching off"
    "6600a5907cf2b98b5e72f80ff9a2ea42"
    (digest_gryff ~env:off_env ())

(* {1 Batched runs are deterministic and still verify} *)

let batched_env check_mode =
  Harness.Env.(
    default |> with_check check_mode
    |> with_batching
         (Some { Sim.Net.batch_us = 50; batch_max = 32; adaptive = false }))

let test_batched_deterministic () =
  let a = digest_spanner ~env:(batched_env `No_check) () in
  let b = digest_spanner ~env:(batched_env `No_check) () in
  check string "same seed, same batched schedule" a b;
  (* Batching must actually change the schedule it claims to optimise. *)
  check bool "batched schedule differs from unbatched" true
    (a <> "371676f632a207ac160041a6f67542ce")

let test_batched_passes_online_check () =
  let r =
    Harness.spanner_dc ~env:(batched_env `Online) ~mode:Spanner.Config.Rss
      ~n_shards:3 ~service_time_us:20 ~n_clients:16 ~n_keys:200 ~duration_s:2.0
      ~seed:11 ()
  in
  check bool "spanner batched online check passes" true (Harness.Run.passed r);
  check bool "spanner batched run coalesced" true
    (Harness.Run.counter r "batch.envelopes" > 0
    && Harness.Run.counter r "batch.members"
       > Harness.Run.counter r "batch.envelopes");
  let g =
    Harness.gryff_dc ~env:(batched_env `Online) ~mode:Gryff.Config.Rsc
      ~service_time_us:20 ~n_clients:12 ~conflict:0.2 ~write_ratio:0.4
      ~n_keys:200 ~duration_s:1.0 ~seed:13 ()
  in
  check bool "gryff batched online check passes" true (Harness.Run.passed g);
  check bool "gryff batched run coalesced" true
    (Harness.Run.counter g "batch.envelopes" > 0)

let suites =
  [
    ( "batch.accounting",
      [
        Alcotest.test_case "envelope bytes exact under loss" `Quick
          test_accounting_under_loss;
        Alcotest.test_case "duplication never double-charges" `Quick
          test_accounting_under_dup;
        Alcotest.test_case "policy validation" `Quick test_policy_validation;
      ] );
    ( "batch.identity",
      [
        Alcotest.test_case "batching off is byte-identical" `Quick
          test_batching_off_is_byte_identical;
        Alcotest.test_case "batched runs are deterministic" `Quick
          test_batched_deterministic;
        Alcotest.test_case "batched runs pass the online checker" `Quick
          test_batched_passes_online_check;
      ] );
  ]
