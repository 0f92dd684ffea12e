(* Scale-pass guarantees: (1) the online checker (Rss_core.Check_online)
   agrees with the offline witness checker on large batteries of random
   histories, valid and mutated-invalid, across all three modes; (2) a
   starved work budget degrades to Unknown (or a still-sound verdict),
   never to a wrong one; (3) seeded protocol traces are byte-identical to
   the golden digests captured before the lib/sim hot-path optimisation —
   and stay identical whichever check mode observes them. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

module W = Rss_core.Witness
module CO = Rss_core.Check_online

(* {1 Random history generation}

   Histories are generated in serialization order against a replayed store,
   so they are valid by construction for every mode: [ts] increases (with
   occasional shared-ts rank-1 read-only txns), invocations increase with
   [ts], and responses overlap by a bounded jitter. They are then re-sorted
   into arrival (response) order — which locally shuffles them, exercising
   the online checker's out-of-order insertion paths — before being fed to
   both checkers. [key_name i j] names key [j] as the [i]-th transaction in
   serialization order sees it (default ["k<j>"]), so a caller can bring in
   new keys mid-history. With [~well_formed:true] processes take turns and
   each finishes before its next invocation, with no incomplete txns: the
   shape the suffix fallback needs to confirm a verdict. *)

let gen_history ?(key_name = fun _ j -> Printf.sprintf "k%d" j)
    ?(well_formed = false) ~rng ~n ~n_procs ~n_keys () =
  let store : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let next_val = ref 0 in
  let pick_keys i max_n =
    let n_pick = Sim.Rng.int rng (max_n + 1) in
    let rec go acc = function
      | 0 -> acc
      | m ->
        (* Duplicates just shrink the pick — avoids looping when the pool
           is smaller than the request. *)
        let k = key_name i (Sim.Rng.int rng n_keys) in
        if List.mem k acc then go acc (m - 1) else go (k :: acc) (m - 1)
    in
    go [] n_pick
  in
  let txns =
    Array.init n (fun i ->
        let proc = if well_formed then i mod n_procs else Sim.Rng.int rng n_procs in
        let inv = (10 * i) + Sim.Rng.int rng 10 in
        let resp =
          if well_formed then inv + Sim.Rng.int rng ((10 * n_procs) - 9)
          else if Sim.Rng.bool rng 0.05 then max_int
          else inv + Sim.Rng.int rng 30
        in
        let share_ts = i > 0 && Sim.Rng.bool rng 0.15 in
        if share_ts then begin
          (* A read-only txn sharing the previous txn's timestamp, ranked
             after it — the Spanner RO-at-commit-ts shape. *)
          let key = key_name i (Sim.Rng.int rng n_keys) in
          let reads = [ (key, Hashtbl.find_opt store key) ] in
          { W.proc; reads; writes = []; inv; resp; ts = i - 1; rank = 1 }
        end
        else begin
          let read_keys = pick_keys i 2 in
          let reads = List.map (fun k -> (k, Hashtbl.find_opt store k)) read_keys in
          let write_keys = pick_keys i 2 in
          let writes =
            List.map
              (fun k ->
                incr next_val;
                (k, !next_val))
              write_keys
          in
          let reads, writes =
            if reads = [] && writes = [] then
              let k = key_name i 0 in
              ([ (k, Hashtbl.find_opt store k) ], [])
            else (reads, writes)
          in
          List.iter (fun (k, v) -> Hashtbl.replace store k v) writes;
          { W.proc; reads; writes; inv; resp; ts = i; rank = 0 }
        end)
  in
  (* Arrival order: by response time, incomplete txns (resp = max_int) last,
     stable for ties. *)
  let arr = Array.copy txns in
  Array.stable_sort (fun a b -> Stdlib.compare a.W.resp b.W.resp) arr;
  (arr, !next_val)

(* Corrupt one aspect of a history. Mutations keep written values unique (a
   checker precondition), so both checkers remain in their contract; most
   mutations produce a genuinely invalid history. *)
let mutate ~rng ~max_val txns =
  let txns = Array.map (fun x -> x) txns in
  let n = Array.length txns in
  let with_read =
    Array.to_list (Array.mapi (fun i x -> (i, x)) txns)
    |> List.filter (fun (_, x) -> List.exists (fun (_, v) -> v <> None) x.W.reads)
    |> List.map fst
  in
  match Sim.Rng.int rng 4 with
  | 0 when with_read <> [] ->
    (* Wrong reads-from: point a read at some other (or stale) value. *)
    let i = List.nth with_read (Sim.Rng.int rng (List.length with_read)) in
    let x = txns.(i) in
    let reads =
      List.map
        (fun (k, v) ->
          match v with
          | Some _ -> (k, Some (1 + Sim.Rng.int rng (max 1 max_val)))
          | None -> (k, v))
        x.W.reads
    in
    txns.(i) <- { x with W.reads };
    txns
  | 1 when with_read <> [] ->
    (* Read of a never-written value. *)
    let i = List.nth with_read (Sim.Rng.int rng (List.length with_read)) in
    let x = txns.(i) in
    let reads =
      match x.W.reads with
      | (k, Some _) :: rest -> (k, Some 424_242_424) :: rest
      | reads -> List.map (fun (k, _) -> (k, Some 424_242_424)) reads
    in
    txns.(i) <- { x with W.reads };
    txns
  | 2 ->
    (* Session inversion: swap the timestamps of one process's txns. *)
    let by_proc = Hashtbl.create 8 in
    Array.iteri
      (fun i x ->
        if x.W.resp <> max_int then
          Hashtbl.replace by_proc x.W.proc
            (i :: (try Hashtbl.find by_proc x.W.proc with Not_found -> [])))
      txns;
    let cand =
      Hashtbl.fold
        (fun _ is acc -> match is with a :: b :: _ -> (a, b) :: acc | _ -> acc)
        by_proc []
    in
    (match cand with
    | [] -> txns
    | _ ->
      let a, b = List.nth cand (Sim.Rng.int rng (List.length cand)) in
      let ta = txns.(a).W.ts and tb = txns.(b).W.ts in
      txns.(a) <- { (txns.(a)) with W.ts = tb };
      txns.(b) <- { (txns.(b)) with W.ts = ta };
      txns)
  | _ ->
    (* Real-time inversion: a late-serialized txn that responded before an
       earlier txn was invoked (invalid for Strict; often for Rss too). *)
    let n2 = max 1 (n / 2) in
    let i = n2 + Sim.Rng.int rng (n - n2) in
    let x = txns.(i) in
    if x.W.resp = max_int then txns
    else begin
      txns.(i) <- { x with W.resp = 3 };
      txns
    end

let modes = [ (`Sequential, "seq"); (`Rss, "rss"); (`Strict, "strict") ]

let agree_name = function
  | Ok () -> "valid"
  | Error _ -> "invalid"

(* Online with unbounded work budget must return a definitive verdict that
   matches the offline checker exactly. *)
let assert_agreement ~what ~mode ~mode_name ~seed txns =
  let offline = W.check ~mode txns in
  let online = CO.check ~mode txns in
  match (offline, online) with
  | Ok (), CO.Pass | Error _, CO.Fail _ -> ()
  | _, CO.Unknown m ->
    Alcotest.failf "%s mode=%s seed=%d: online Unknown (%s) with offline %s"
      what mode_name seed m (agree_name offline)
  | Ok (), CO.Fail m ->
    Alcotest.failf "%s mode=%s seed=%d: online Fail (%s) but offline valid"
      what mode_name seed m
  | Error m, CO.Pass ->
    Alcotest.failf "%s mode=%s seed=%d: online Pass but offline invalid (%s)"
      what mode_name seed m

let test_agreement_valid () =
  List.iter
    (fun (mode, mode_name) ->
      for seed = 1 to 200 do
        let rng = Sim.Rng.make (seed + (0x5ca1e * Hashtbl.hash mode_name)) in
        let txns, _ =
          gen_history ~rng ~n:(20 + Sim.Rng.int rng 80)
            ~n_procs:(1 + Sim.Rng.int rng 6)
            ~n_keys:(1 + Sim.Rng.int rng 6) ()
        in
        (match W.check ~mode txns with
        | Ok () -> ()
        | Error m ->
          Alcotest.failf "generator produced invalid %s history (seed %d): %s"
            mode_name seed m);
        assert_agreement ~what:"valid" ~mode ~mode_name ~seed txns
      done)
    modes

let test_agreement_mutated () =
  let invalid = ref 0 and total = ref 0 in
  List.iter
    (fun (mode, mode_name) ->
      for seed = 1 to 200 do
        let rng = Sim.Rng.make (seed + (0xbad * Hashtbl.hash mode_name)) in
        let txns, max_val =
          gen_history ~rng ~n:(20 + Sim.Rng.int rng 80)
            ~n_procs:(1 + Sim.Rng.int rng 6)
            ~n_keys:(1 + Sim.Rng.int rng 6) ()
        in
        let txns = mutate ~rng ~max_val txns in
        incr total;
        if W.check ~mode txns <> Ok () then incr invalid;
        assert_agreement ~what:"mutated" ~mode ~mode_name ~seed txns
      done)
    modes;
  (* The mutation battery must actually have teeth. *)
  check bool
    (Fmt.str "mutations mostly invalid (%d/%d)" !invalid !total)
    true
    (!invalid * 2 > !total)

(* A starved work budget may say Unknown but never contradict the offline
   verdict: Pass still implies valid, Fail still implies invalid. *)
let test_starved_budget_never_wrong () =
  List.iter
    (fun (mode, mode_name) ->
      for seed = 1 to 100 do
        let rng = Sim.Rng.make (seed + (0x7ea * Hashtbl.hash mode_name)) in
        let txns, max_val =
          gen_history ~rng ~n:60 ~n_procs:4 ~n_keys:4 ()
        in
        let txns = if seed mod 2 = 0 then mutate ~rng ~max_val txns else txns in
        let offline = W.check ~mode txns in
        match
          (CO.check ~work_budget:8 ~fallback_states:2_000 ~mode txns, offline)
        with
        | CO.Unknown _, _ -> ()
        | CO.Pass, Ok () | CO.Fail _, Error _ -> ()
        | CO.Pass, Error m ->
          Alcotest.failf "starved mode=%s seed=%d: Pass on invalid (%s)"
            mode_name seed m
        | CO.Fail m, Ok () ->
          Alcotest.failf "starved mode=%s seed=%d: Fail (%s) on valid"
            mode_name seed m
      done)
    modes

(* Large key spaces: 400 transactions over up to 300 keys, so the checker's
   key-id arrays grow many times mid-history. *)
let test_agreement_many_keys () =
  List.iter
    (fun (mode, mode_name) ->
      for seed = 1 to 40 do
        let rng = Sim.Rng.make (seed + (0x4e75 * Hashtbl.hash mode_name)) in
        let txns, max_val =
          gen_history ~rng ~n:400 ~n_procs:(1 + Sim.Rng.int rng 8)
            ~n_keys:(1 + Sim.Rng.int rng 300) ()
        in
        if seed mod 2 = 0 then
          assert_agreement ~what:"many-keys mutated" ~mode ~mode_name ~seed
            (mutate ~rng ~max_val txns)
        else assert_agreement ~what:"many-keys valid" ~mode ~mode_name ~seed txns
      done)
    modes

(* Histories whose keys are first seen (in arrival order) through a nil
   read, or through a read whose writer has not arrived yet and so becomes
   a deferred obligation. Every key is fresh when first named: a nil read
   names a never-written key, which a later txn may then write; a write
   names a fresh key, and its txn often responds late, so the next txns'
   reads of that key arrive first. Valid by construction: [ts] follows
   invocation order and every read replays the store. *)
let gen_first_sight ~rng ~n ~n_procs =
  let store : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let next_val = ref 0 and next_key = ref 0 in
  let fresh () =
    incr next_key;
    Printf.sprintf "f%d" !next_key
  in
  let nil_read = ref [] and written = ref [] in
  let pick l = List.nth l (Sim.Rng.int rng (List.length l)) in
  let txns =
    Array.init n (fun i ->
        let proc = Sim.Rng.int rng n_procs in
        let inv = (10 * i) + Sim.Rng.int rng 10 in
        let reads =
          match Sim.Rng.int rng 3 with
          | 0 ->
            let k = fresh () in
            nil_read := k :: !nil_read;
            [ (k, None) ]
          | 1 when !written <> [] ->
            let k = pick (List.filteri (fun j _ -> j < 4) !written) in
            [ (k, Hashtbl.find_opt store k) ]
          | _ -> []
        in
        let writes =
          match Sim.Rng.int rng 3 with
          | 0 when !nil_read <> [] -> [ pick !nil_read ]
          | 0 | 1 -> [ fresh () ]
          | _ -> if reads = [] then [ fresh () ] else []
        in
        let writes =
          List.filter (fun k -> not (List.mem_assoc k reads)) writes
          |> List.map (fun k ->
                 incr next_val;
                 Hashtbl.replace store k !next_val;
                 written := k :: !written;
                 (k, !next_val))
        in
        let reads = if reads = [] && writes = [] then [ (fresh (), None) ] else reads in
        let resp =
          if Sim.Rng.bool rng 0.05 then max_int
          else if writes <> [] && Sim.Rng.bool rng 0.5 then
            inv + 100 + Sim.Rng.int rng 200
          else inv + Sim.Rng.int rng 30
        in
        { W.proc; reads; writes; inv; resp; ts = i; rank = 0 })
  in
  Array.stable_sort (fun a b -> Stdlib.compare a.W.resp b.W.resp) txns;
  (txns, !next_val)

let test_agreement_first_sight () =
  List.iter
    (fun (mode, mode_name) ->
      for seed = 1 to 150 do
        let rng = Sim.Rng.make (seed + (0xf1 * Hashtbl.hash mode_name)) in
        let txns, max_val =
          gen_first_sight ~rng ~n:(20 + Sim.Rng.int rng 120)
            ~n_procs:(1 + Sim.Rng.int rng 6)
        in
        (match W.check ~mode txns with
        | Ok () -> ()
        | Error m ->
          Alcotest.failf "first-sight generator produced invalid %s history \
                          (seed %d): %s"
            mode_name seed m);
        assert_agreement ~what:"first-sight valid" ~mode ~mode_name ~seed txns;
        assert_agreement ~what:"first-sight mutated" ~mode ~mode_name ~seed
          (mutate ~rng ~max_val txns)
      done)
    modes

(* Whether the whole history satisfies the mode's model, by the exhaustive
   search checker ([None] when its budget runs out). *)
let model_holds ~mode txns =
  let model =
    match mode with
    | `Strict -> Rss_core.Check_txn.Strict_serializable
    | `Rss -> Rss_core.Check_txn.Rss
    | `Sequential -> Rss_core.Check_txn.Process_ordered
  in
  let h =
    Rss_core.Txn_history.make
      (Array.to_list
         (Array.mapi
            (fun id (x : W.txn) ->
              {
                Rss_core.Txn_history.id;
                proc = x.W.proc;
                reads = x.W.reads;
                writes = x.W.writes;
                inv = x.W.inv;
                resp = (if x.W.resp = max_int then None else Some x.W.resp);
              })
            txns))
  in
  Rss_core.Check_txn.satisfies ~max_states:200_000 h model

(* A starved budget whose buffered suffix names keys the checked prefix
   never saw: the second half of each history writes and reads keys
   ["late<j>"] alongside the first half's ["k<j>"], so the suffix fallback
   starts from the prefix's final store and must handle keys absent from
   it. A Fail must match the offline checker. The fallback searches for any
   serialization of the suffix rather than checking the claimed one, so its
   Pass may hold where the claimed order fails; such a Pass must then be
   confirmed by the exhaustive search over the whole history. Some
   overflowed runs must be confirmed by the fallback. *)
let test_starved_suffix_new_keys () =
  let budget = 0 in
  let confirmed = ref 0 in
  List.iter
    (fun (mode, mode_name) ->
      for seed = 1 to 100 do
        let rng = Sim.Rng.make (seed + (0x5f * Hashtbl.hash mode_name)) in
        let n = 30 in
        let key_name i j =
          if i >= n / 2 && j >= 2 then Printf.sprintf "late%d" j
          else Printf.sprintf "k%d" j
        in
        let txns, max_val =
          gen_history ~key_name ~well_formed:true ~rng ~n ~n_procs:5 ~n_keys:4 ()
        in
        let txns = if seed mod 2 = 0 then mutate ~rng ~max_val txns else txns in
        let t = CO.create ~work_budget:budget ~fallback_states:20_000 ~mode () in
        (* The transaction whose add overflowed the budget ends the prefix. *)
        let prefix_len = ref (Array.length txns) in
        Array.iteri
          (fun i x ->
            CO.add t x;
            if CO.work t > budget && !prefix_len = Array.length txns then
              prefix_len := i + 1)
          txns;
        let keys_of a = Array.to_list a |> List.concat_map (fun x ->
            List.map fst x.W.reads @ List.map fst x.W.writes) in
        let prefix_keys = keys_of (Array.sub txns 0 !prefix_len) in
        let new_in_suffix =
          List.exists (fun k -> not (List.mem k prefix_keys))
            (keys_of (Array.sub txns !prefix_len (Array.length txns - !prefix_len)))
        in
        match (CO.result t, W.check ~mode txns) with
        | CO.Unknown _, _ -> ()
        | CO.Pass, Ok () -> if new_in_suffix then incr confirmed
        | CO.Fail _, Error _ -> ()
        | CO.Pass, Error m -> (
          match model_holds ~mode txns with
          | Some true | None -> ()
          | Some false ->
            Alcotest.failf
              "starved new-keys mode=%s seed=%d: Pass on a history the search \
               rejects (claimed order: %s)"
              mode_name seed m)
        | CO.Fail m, Ok () ->
          Alcotest.failf "starved new-keys mode=%s seed=%d: Fail (%s) on valid"
            mode_name seed m
      done)
    modes;
  check bool
    (Fmt.str "fallback confirmed suffixes with unseen keys (%d)" !confirmed)
    true (!confirmed > 0)

(* A buffered suffix whose process order and reads-from form a cycle (txn
   2 reads the value its own process writes next) makes the fallback's
   search reject the history outright; the checker must say Unknown rather
   than raise. *)
let test_suffix_cycle_is_unknown () =
  let txn ~proc ?(reads = []) ?(writes = []) ~inv ~resp ~ts () =
    { W.proc; reads; writes; inv; resp; ts; rank = 0 }
  in
  let txns =
    [| txn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:3 ~ts:10 ();
       (* concurrent with txn 0 but serialized before it: the displacement
          overflows a zero budget *)
       txn ~proc:1 ~writes:[ ("y", 1) ] ~inv:1 ~resp:4 ~ts:5 ();
       txn ~proc:2 ~reads:[ ("z", Some 7) ] ~inv:5 ~resp:6 ~ts:20 ();
       txn ~proc:2 ~writes:[ ("z", 7) ] ~inv:7 ~resp:8 ~ts:15 () |]
  in
  check bool "offline rejects the claimed order" true (W.check ~mode:`Rss txns <> Ok ());
  match CO.check ~work_budget:0 ~mode:`Rss txns with
  | CO.Unknown _ -> ()
  | CO.Pass -> Alcotest.fail "Pass on a cyclic suffix"
  | CO.Fail m -> Alcotest.failf "Fail (%s) from the unchecked suffix" m

(* Gryff runs one checker per key, so an empty checker must stay small: a
   return to preallocated hash buckets would multiply the heap by the key
   count. *)
let test_create_is_small () =
  let n = 10_000 in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (CO.create ~mode:`Rss ()))
  done;
  let words =
    (Gc.allocated_bytes () -. a0) /. float_of_int (n * (Sys.word_size / 8))
  in
  check bool (Fmt.str "create allocates %.1f words (at most 128)" words) true
    (words <= 128.0)

(* The overflow path must still be able to confirm easy histories: an
   in-order (already-serialized) stream overflows nothing and a shuffled one
   falls back; either way a generous fallback on a small valid suffix says
   Pass or Unknown, and a Pass must be real. Also pin the work meter:
   feeding in serialization order displaces nothing. *)
let test_in_order_feed_is_linear () =
  let rng = Sim.Rng.make 42 in
  let txns, _ = gen_history ~rng ~n:500 ~n_procs:4 ~n_keys:5 () in
  let in_order = Array.copy txns in
  Array.sort
    (fun a b ->
      if a.W.ts <> b.W.ts then Stdlib.compare a.W.ts b.W.ts
      else Stdlib.compare a.W.rank b.W.rank)
    in_order;
  let t = CO.create ~mode:`Rss () in
  Array.iter (CO.add t) in_order;
  (match CO.result t with
  | CO.Pass -> ()
  | CO.Fail m -> Alcotest.failf "in-order feed failed: %s" m
  | CO.Unknown m -> Alcotest.failf "in-order feed unknown: %s" m);
  check int "in-order feed displaces nothing" 0 (CO.max_displacement t)

(* {1 Golden seeded traces}

   Digests of short harness runs, captured at a fixed seed before the
   lib/sim hot-path optimisation. The simulator may get faster; it may not
   produce a different schedule: same records, same order, same simulated
   duration. If a deliberate semantic change to the protocols or drivers
   lands, re-baseline these constants in the same commit and say so. *)

let no_check = Harness.Env.(with_check `No_check default)

let digest_spanner () =
  let r =
    Harness.spanner_dc ~env:no_check ~mode:Spanner.Config.Rss ~n_shards:3
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

let digest_gryff () =
  let r =
    Harness.gryff_wan ~env:no_check ~n_clients:8 ~mode:Gryff.Config.Rsc
      ~conflict:0.2 ~write_ratio:0.4 ~n_keys:500 ~duration_s:2.0 ~seed:13 ()
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

(* Captured from the seed implementation (pre-optimisation); asserted
   identical after every lib/sim change. *)
let golden_spanner = "371676f632a207ac160041a6f67542ce"
let golden_gryff = "6600a5907cf2b98b5e72f80ff9a2ea42"

let test_golden_spanner_trace () =
  check string "spanner seeded trace digest" golden_spanner (digest_spanner ())

let test_golden_gryff_trace () =
  check string "gryff seeded trace digest" golden_gryff (digest_gryff ())

(* Online checking must be passive: same seed, same records, same schedule —
   and the online verdict must agree with the offline one on real runs. *)
let test_online_checking_is_passive () =
  let run chk =
    Harness.spanner_dc
      ~env:(Harness.Env.with_check chk Harness.Env.default)
      ~mode:Spanner.Config.Rss ~n_shards:3
      ~service_time_us:20 ~n_clients:8 ~n_keys:100 ~duration_s:1.0 ~seed:7 ()
  in
  let off = run `Offline and on = run `Online in
  check bool "offline run verified" true (Harness.Run.passed off);
  check bool "online run verified" true (Harness.Run.passed on);
  check int "same simulated duration" off.Harness.Run.duration_us
    on.Harness.Run.duration_us;
  check int "same record count" (Harness.Run.n_records off)
    (Harness.Run.n_records on);
  let g cm =
    Harness.gryff_wan
      ~env:(Harness.Env.with_check cm Harness.Env.default)
      ~n_clients:6 ~mode:Gryff.Config.Rsc
      ~conflict:0.3 ~write_ratio:0.5 ~n_keys:50 ~duration_s:1.0 ~seed:9 ()
  in
  let goff = g `Offline and gon = g `Online in
  check bool "gryff offline verified" true (Harness.Run.passed goff);
  check bool "gryff online verified" true (Harness.Run.passed gon);
  check int "gryff same duration" goff.Harness.Run.duration_us
    gon.Harness.Run.duration_us

let suites =
  [
    ( "scale.online",
      [
        Alcotest.test_case "agrees with offline on valid histories" `Quick
          test_agreement_valid;
        Alcotest.test_case "agrees with offline on mutated histories" `Quick
          test_agreement_mutated;
        Alcotest.test_case "starved budget is never wrong" `Quick
          test_starved_budget_never_wrong;
        Alcotest.test_case "agrees with offline over many keys" `Quick
          test_agreement_many_keys;
        Alcotest.test_case "agrees with offline on first sightings" `Quick
          test_agreement_first_sight;
        Alcotest.test_case "starved suffix with unseen keys" `Quick
          test_starved_suffix_new_keys;
        Alcotest.test_case "cyclic suffix is unknown" `Quick
          test_suffix_cycle_is_unknown;
        Alcotest.test_case "create is small" `Quick test_create_is_small;
        Alcotest.test_case "in-order feed is linear" `Quick
          test_in_order_feed_is_linear;
        Alcotest.test_case "online checking is passive" `Quick
          test_online_checking_is_passive;
      ] );
    ( "scale.golden",
      [
        Alcotest.test_case "spanner seeded trace digest" `Quick
          test_golden_spanner_trace;
        Alcotest.test_case "gryff seeded trace digest" `Quick
          test_golden_gryff_trace;
      ] );
  ]
