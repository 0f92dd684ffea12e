(* Scale-pass guarantees: (1) the online checker (Rss_core.Check_online)
   and the offline graph checker (Rss_core.Check_graph), given the claimed
   order as a chain of edges, agree exactly on large batteries of random
   histories, valid and mutated-invalid, across all three modes; every
   order the graph checker returns replays as a Check_online Pass; the
   work meter equals a brute-force count of its definition, and every
   Pass on a small history is one the exhaustive search (Rss_core.Check_txn)
   accepts; (2) seeded protocol traces are byte-identical to the golden
   digests captured before the lib/sim hot-path optimisation — and stay
   identical whichever check mode observes them; (3) the judge that runs
   after the drain gives the verdicts and work counters of checkers fed
   record by record as the run recorded them. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

module W = Rss_core.Witness
module CO = Rss_core.Check_online
module CG = Rss_core.Check_graph

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
   each finishes before its next invocation, with no incomplete txns. *)

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

let show = function
  | CO.Pass -> "pass"
  | CO.Fail m -> "fail: " ^ m
  | CO.Unknown m -> "unknown: " ^ m

(* The claimed order (ts, rank, inv, index) as a chain of edges: with it,
   the graph is acyclic exactly when the claimed order is a valid
   witness. *)
let claimed_chain txns =
  let ord = Array.init (Array.length txns) Fun.id in
  let key i = (txns.(i).W.ts, txns.(i).W.rank, txns.(i).W.inv) in
  Array.stable_sort (fun i j -> compare (key i) (key j)) ord;
  List.init (max 0 (Array.length ord - 1)) (fun q -> (ord.(q), ord.(q + 1)))

(* A certificate: the order, as timestamps, is a claimed order that
   Check_online passes. *)
let replays ~mode txns order =
  let replay = Array.copy txns in
  Array.iteri (fun p i -> replay.(i) <- { (txns.(i)) with W.ts = p }) order;
  CO.check ~mode replay = CO.Pass

(* Online and the graph with the claimed order as a chain must give the
   same verdict; every graph order must replay; and a valid claimed order
   is one of the graph's orders, so the graph alone must pass it too. *)
let assert_agreement ~what ~mode ~mode_name ~seed txns =
  let label = Printf.sprintf "%s mode=%s seed=%d" what mode_name seed in
  let graph ?edges () =
    match CG.check ?edges ~mode txns with
    | Error m -> Error m
    | Ok order ->
      if not (replays ~mode txns order) then Alcotest.failf "%s: order does not replay" label;
      Ok ()
  in
  let online = CO.check ~mode txns in
  (match (online, graph ~edges:(claimed_chain txns) ()) with
  | CO.Pass, Ok () | CO.Fail _, Error _ -> ()
  | CO.Pass, Error m -> Alcotest.failf "%s: online Pass but graph %s" label m
  | v, _ -> Alcotest.failf "%s: online %s but graph Ok" label (show v));
  if online = CO.Pass then
    match graph () with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: graph rejects a valid claimed order: %s" label m

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
        (match CO.check ~mode txns with
        | CO.Pass -> ()
        | v ->
          Alcotest.failf "generator produced invalid %s history (seed %d): %s"
            mode_name seed (show v));
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
        if CO.check ~mode txns <> CO.Pass then incr invalid;
        assert_agreement ~what:"mutated" ~mode ~mode_name ~seed txns
      done)
    modes;
  (* The mutation battery must actually have teeth. *)
  check bool
    (Fmt.str "mutations mostly invalid (%d/%d)" !invalid !total)
    true
    (!invalid * 2 > !total)

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
        (match CO.check ~mode txns with
        | CO.Pass -> ()
        | v ->
          Alcotest.failf "first-sight generator produced invalid %s history \
                          (seed %d): %s"
            mode_name seed (show v));
        assert_agreement ~what:"first-sight valid" ~mode ~mode_name ~seed txns;
        assert_agreement ~what:"first-sight mutated" ~mode ~mode_name ~seed
          (mutate ~rng ~max_val txns)
      done)
    modes

(* Keys first named halfway through: the second half of each history
   reads and writes keys ["late<j>"] alongside the first half's ["k<j>"],
   and processes take turns, so late keys arrive while every earlier key
   already has a version order. *)
let test_agreement_late_keys () =
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
        assert_agreement ~what:"late-keys valid" ~mode ~mode_name ~seed txns;
        assert_agreement ~what:"late-keys mutated" ~mode ~mode_name ~seed
          (mutate ~rng ~max_val txns)
      done)
    modes

(* Process order and reads-from form a cycle: txn 2 reads the value its
   own process writes next, at a smaller timestamp. Txn 1, concurrent with
   txn 0 but serialized before it, arrives displaced. The claimed order
   inverts process 2's session, and the checker says so. *)
let test_cyclic_history_fails () =
  let txn ~proc ?(reads = []) ?(writes = []) ~inv ~resp ~ts () =
    { W.proc; reads; writes; inv; resp; ts; rank = 0 }
  in
  let txns =
    [| txn ~proc:0 ~writes:[ ("x", 1) ] ~inv:0 ~resp:3 ~ts:10 ();
       txn ~proc:1 ~writes:[ ("y", 1) ] ~inv:1 ~resp:4 ~ts:5 ();
       txn ~proc:2 ~reads:[ ("z", Some 7) ] ~inv:5 ~resp:6 ~ts:20 ();
       txn ~proc:2 ~writes:[ ("z", 7) ] ~inv:7 ~resp:8 ~ts:15 () |]
  in
  check bool "the graph rejects the claimed order" true
    (Result.is_error (CG.check ~edges:(claimed_chain txns) ~mode:`Rss txns));
  check (Alcotest.result Alcotest.reject string) "the graph names the cycle"
    (Error "cycle: txn 2 -po-> txn 3 -rf-> txn 2") (CG.check ~mode:`Rss txns);
  match CO.check ~mode:`Rss txns with
  | CO.Fail m ->
    check string "session-order failure"
      "session order: process 2's txns 2 and 3 inverted" m
  | CO.Pass -> Alcotest.fail "Pass on a cyclic history"
  | CO.Unknown m -> Alcotest.failf "Unknown (%s) on a cyclic history" m

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

(* Pin the work meter: feeding a valid history in serialization order
   passes and displaces nothing. *)
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

(* {1 The meter against its definition}

   [work] sums, and [max_displacement] maximises, one count per member of
   four families: for each member, the members of its family that arrived
   earlier but rank after it. The families are the claimed order
   (ts, rank, inv, arrival) over all txns, each key's writers and each
   key's complete readers in that order, and each process's txns in
   (inv, arrival) order. This reference counts by brute force over every
   earlier member. *)

let reference_meter txns =
  let n = Array.length txns in
  let after i j =
    (* does arrival index [j] rank after [i] in claimed order? *)
    let a = txns.(i) and b = txns.(j) in
    compare (b.W.ts, b.W.rank, b.W.inv, j) (a.W.ts, a.W.rank, a.W.inv, i) > 0
  in
  let work = ref 0 and max_d = ref 0 in
  let family ~groups ~ranks_after =
    for i = 0 to n - 1 do
      List.iter
        (fun group ->
          let d = ref 0 in
          for j = 0 to i - 1 do
            if List.mem group (groups j) && ranks_after i j then incr d
          done;
          work := !work + !d;
          max_d := max !max_d !d)
        (groups i)
    done
  in
  let complete j = txns.(j).W.resp <> max_int in
  family ~groups:(fun _ -> [ "" ]) ~ranks_after:after;
  family
    ~groups:(fun j -> List.map fst txns.(j).W.writes)
    ~ranks_after:after;
  family
    ~groups:(fun j -> if complete j then List.map fst txns.(j).W.reads else [])
    ~ranks_after:after;
  family
    ~groups:(fun j -> [ string_of_int txns.(j).W.proc ])
    ~ranks_after:(fun i j -> txns.(j).W.inv > txns.(i).W.inv);
  (!work, !max_d)

let assert_meter ~what ~mode ~mode_name ~seed txns =
  let t = CO.create ~mode () in
  Array.iter (CO.add t) txns;
  let v = CO.result t in
  let work, max_d = reference_meter txns in
  let label = Printf.sprintf "%s mode=%s seed=%d" what mode_name seed in
  check int (label ^ ": work") work (CO.work t);
  check int (label ^ ": max_displacement") max_d (CO.max_displacement t);
  (* Every record counts, failing history or not. *)
  check int (label ^ ": n_added") (Array.length txns) (CO.n_added t);
  v

let test_meter_reference () =
  let fails = ref 0 in
  List.iter
    (fun (mode, mode_name) ->
      for seed = 1 to 60 do
        let rng = Sim.Rng.make (seed + (0x3e7 * Hashtbl.hash mode_name)) in
        let txns, max_val =
          gen_history ~rng ~n:(20 + Sim.Rng.int rng 60)
            ~n_procs:(1 + Sim.Rng.int rng 6)
            ~n_keys:(1 + Sim.Rng.int rng 6) ()
        in
        ignore (assert_meter ~what:"valid" ~mode ~mode_name ~seed txns);
        (match
           assert_meter ~what:"mutated" ~mode ~mode_name ~seed
             (mutate ~rng ~max_val txns)
         with
        | CO.Fail _ -> incr fails
        | CO.Pass | CO.Unknown _ -> ());
        let key_name i j =
          if i >= 15 && j >= 2 then Printf.sprintf "late%d" j else Printf.sprintf "k%d" j
        in
        let txns, _ =
          gen_history ~key_name ~well_formed:true ~rng ~n:30 ~n_procs:5 ~n_keys:4 ()
        in
        ignore (assert_meter ~what:"late keys" ~mode ~mode_name ~seed txns)
      done)
    modes;
  check bool (Fmt.str "failing histories metered (%d)" !fails) true (!fails > 60)

(* {1 Against the exact checker}

   Small random histories (at most 7 txns, 3 keys, 3 processes) whose
   claimed order is drawn at random and whose reads mostly replay it.
   Each process runs its txns one after another; an incomplete txn is
   write-only and its process's last, as the sweep records them. Every
   [Pass] must be satisfiable under the matching model by {!Check_txn}'s
   exhaustive search. *)

let gen_small ~rng =
  let n = 1 + Sim.Rng.int rng 7 and n_procs = 1 + Sim.Rng.int rng 3 in
  let n_keys = 1 + Sim.Rng.int rng 3 in
  let clock = Array.make n_procs 0 and stopped = Array.make n_procs false in
  let next_val = ref 0 in
  let pick_keys () =
    List.init n_keys (Printf.sprintf "k%d") |> List.filter (fun _ -> Sim.Rng.bool rng 0.5)
  in
  let rec gen acc m =
    let live = List.filter (fun p -> not stopped.(p)) (List.init n_procs Fun.id) in
    if m = 0 || live = [] then Array.of_list (List.rev acc)
    else begin
      let proc = List.nth live (Sim.Rng.int rng (List.length live)) in
      let inv = clock.(proc) + Sim.Rng.int rng 6 in
      let incomplete = Sim.Rng.bool rng 0.15 in
      let resp = if incomplete then max_int else inv + 1 + Sim.Rng.int rng 12 in
      clock.(proc) <- resp;
      stopped.(proc) <- incomplete;
      let writes =
        List.map
          (fun k ->
            incr next_val;
            (k, !next_val))
          (pick_keys ())
      in
      let reads =
        if incomplete then [] else List.map (fun k -> (k, None)) (pick_keys ())
      in
      let writes =
        if reads = [] && writes = [] then begin
          incr next_val;
          [ ("k0", !next_val) ]
        end
        else writes
      in
      let ts = Sim.Rng.int rng 8 in
      let rank = W.mutator_rank ~writes in
      gen ({ W.proc; reads; writes; inv; resp; ts; rank } :: acc) (m - 1)
    end
  in
  let txns = gen [] n in
  (* Reads replay the claimed order, except a few that read something else
     written to their key (or nothing). *)
  let ord = Array.init (Array.length txns) Fun.id in
  Array.stable_sort
    (fun i j ->
      compare (txns.(i).W.ts, txns.(i).W.rank, txns.(i).W.inv)
        (txns.(j).W.ts, txns.(j).W.rank, txns.(j).W.inv))
    ord;
  let store = Hashtbl.create 4 in
  let written k =
    Array.to_list txns |> List.concat_map (fun x -> x.W.writes)
    |> List.filter_map (fun (k', v) -> if k' = k then Some (Some v) else None)
  in
  Array.iter
    (fun i ->
      let x = txns.(i) in
      let reads =
        List.map
          (fun (k, _) ->
            if Sim.Rng.bool rng 0.85 then (k, Hashtbl.find_opt store k)
            else
              let choices = None :: written k in
              (k, List.nth choices (Sim.Rng.int rng (List.length choices))))
          x.W.reads
      in
      txns.(i) <- { x with W.reads };
      List.iter (fun (k, v) -> Hashtbl.replace store k v) x.W.writes)
    ord;
  (* Arrival order: by response, incomplete last. *)
  Array.stable_sort (fun a b -> compare a.W.resp b.W.resp) txns;
  txns

let test_passes_are_exact () =
  let exact = function
    | `Strict -> Rss_core.Check_txn.Strict_serializable
    | `Rss -> Rss_core.Check_txn.Rss
    | `Sequential -> Rss_core.Check_txn.Process_ordered
  in
  List.iter
    (fun (mode, mode_name) ->
      let passes = ref 0 and graph_passes = ref 0 in
      for seed = 1 to 1500 do
        let rng = Sim.Rng.make (seed + (0xe4ac7 * Hashtbl.hash mode_name)) in
        let txns = gen_small ~rng in
        let online = CO.check ~mode txns = CO.Pass in
        let graph = Result.is_ok (CG.check ~mode txns) in
        if online then incr passes;
        if graph then incr graph_passes;
        if online || graph then begin
          let h =
            Array.mapi (fun id x -> Rss_core.Txn_history.of_witness ~id x) txns
            |> Array.to_list |> Rss_core.Txn_history.make
          in
          let who = if online then "online" else "graph" in
          match Rss_core.Check_txn.check h (exact mode) with
          | Rss_core.Check_txn.Sat _ -> ()
          | Rss_core.Check_txn.Unsat ->
            Alcotest.failf "mode=%s seed=%d: %s Pass but exact Unsat:@.%a" mode_name seed
              who
              Fmt.(array ~sep:cut Rss_core.Txn_history.pp_txn)
              h.Rss_core.Txn_history.txns
          | Rss_core.Check_txn.Unknown ->
            Alcotest.failf "mode=%s seed=%d: exact search gave up" mode_name seed
        end
      done;
      check bool
        (Fmt.str "%s: passes exercised (%d online, %d graph)" mode_name !passes
           !graph_passes)
        true
        (!passes > 150 && !graph_passes >= !passes))
    modes

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

(* Online checking must be passive: a [`No_check] and an [`Online] run of
   one seed record the same history on the same schedule — and the online
   verdict must agree with the offline oracle on that very history: the
   graph over the whole history, and exactly, given the claimed order, on
   the Spanner history and on each Gryff key. *)
let test_online_checking_is_passive () =
  let same label off on =
    check int (label ^ ": same simulated duration") off.Harness.Run.duration_us
      on.Harness.Run.duration_us;
    check int (label ^ ": same record count") (Harness.Run.n_records off)
      (Harness.Run.n_records on);
    check string (label ^ ": same trace digest")
      (Digest.to_hex (Digest.string (Harness.audit_trace off)))
      (Digest.to_hex (Digest.string (Harness.audit_trace on)))
  in
  let agrees label (on : Harness.Run.t) oracle =
    check bool (label ^ ": online run verified") true (Harness.Run.passed on);
    check bool (label ^ ": oracle agrees") true (oracle = Ok ())
  in
  let run chk =
    Harness.spanner_dc
      ~env:(Harness.Env.with_check chk Harness.Env.default)
      ~mode:Spanner.Config.Rss ~n_shards:3
      ~service_time_us:20 ~n_clients:8 ~n_keys:100 ~duration_s:1.0 ~seed:7 ()
  in
  let off = run `No_check and on = run `Online in
  same "spanner" off on;
  (match on.Harness.Run.records with
  | Harness.Run.Spanner_txns a ->
    agrees "spanner" on (Result.map ignore (CG.check ~mode:`Rss a));
    assert_agreement ~what:"spanner run" ~mode:`Rss ~mode_name:"rss" ~seed:7 a
  | Harness.Run.Gryff_ops _ -> assert false);
  let g cm =
    Harness.gryff_wan
      ~env:(Harness.Env.with_check cm Harness.Env.default)
      ~n_clients:6 ~mode:Gryff.Config.Rsc
      ~conflict:0.3 ~write_ratio:0.5 ~n_keys:50 ~duration_s:1.0 ~seed:9 ()
  in
  let goff = g `No_check and gon = g `Online in
  same "gryff" goff gon;
  (match gon.Harness.Run.records with
  | Harness.Run.Gryff_ops a ->
    agrees "gryff" gon (Gryff.Cluster.check_records ~mode:Gryff.Config.Rsc a);
    let keys = List.sort_uniq Int.compare (Array.to_list (Array.map (fun r -> r.Gryff.Cluster.g_key) a)) in
    List.iter
      (fun k ->
        let on_k = List.filter (fun r -> r.Gryff.Cluster.g_key = k) (Array.to_list a) in
        assert_agreement ~what:(Printf.sprintf "gryff run, key %d" k) ~mode:`Rss
          ~mode_name:"rss" ~seed:9
          (Array.of_list (List.map (Gryff.Cluster.witness_txn ~key:(string_of_int k)) on_k)))
      keys
  | Harness.Run.Spanner_txns _ -> assert false)

(* {1 The post-drain judge}

   Runs are judged after the engine drains, from [Run.records]. The
   reference here is the judge that ran inside the record hook: one
   checker fed each Spanner record as it arrived, and for Gryff a table of
   per-key checkers fed in that same interleaved arrival order, settled in
   ascending key order. [Run.records] lists records in arrival order, so
   every checker sees the same subsequence either way, and verdict strings
   and (added, work, max_displacement) must match exactly. *)

let gryff_witness (r : Gryff.Cluster.record) =
  let key = string_of_int r.Gryff.Cluster.g_key in
  let kind = r.Gryff.Cluster.g_kind in
  {
    W.proc = r.Gryff.Cluster.g_proc;
    reads =
      (if kind = Gryff.Cluster.Write then []
       else [ (key, r.Gryff.Cluster.g_observed) ]);
    writes =
      (match (kind, r.Gryff.Cluster.g_written) with
      | Gryff.Cluster.Read, _ | _, None -> []
      | _, Some v -> [ (key, v) ]);
    inv = r.Gryff.Cluster.g_inv;
    resp = r.Gryff.Cluster.g_resp;
    ts = Gryff.Carstamp.pack r.Gryff.Cluster.g_cs;
    rank = (if kind = Gryff.Cluster.Read then 1 else 0);
  }

let arrival_judge ~mode history =
  let fresh () = CO.create ~mode () in
  let totals ocs =
    List.fold_left
      (fun (a, w, d) oc ->
        (a + CO.n_added oc, w + CO.work oc, max d (CO.max_displacement oc)))
      (0, 0, 0) ocs
  in
  match history with
  | Harness.Run.Spanner_txns a ->
    let oc = fresh () in
    Array.iter (CO.add oc) a;
    (CO.result oc, totals [ oc ])
  | Harness.Run.Gryff_ops a ->
    let keys = Hashtbl.create 256 in
    Array.iter
      (fun (r : Gryff.Cluster.record) ->
        let k = r.Gryff.Cluster.g_key in
        let oc =
          match Hashtbl.find_opt keys k with
          | Some oc -> oc
          | None ->
            let oc = fresh () in
            Hashtbl.add keys k oc;
            oc
        in
        CO.add oc (gryff_witness r))
      a;
    let by_key =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun k oc acc -> (k, oc) :: acc) keys [])
    in
    let verdict =
      List.fold_left
        (fun acc (k, oc) ->
          match (acc, CO.result oc) with
          | CO.Pass, CO.Fail m -> CO.Fail (Printf.sprintf "key %d: %s" k m)
          | _ -> acc)
        CO.Pass by_key
    in
    (verdict, totals (List.map snd by_key))

let same_judgement label ~mode (r : Harness.Run.t) =
  let v, (added, work, disp) = arrival_judge ~mode r.Harness.Run.records in
  check string (label ^ ": verdict") (show v) (show r.Harness.Run.check);
  let c = Harness.Run.counter r in
  check int (label ^ ": check.added") added (c "check.added");
  check int (label ^ ": check.work") work (c "check.work");
  check int (label ^ ": check.max_displacement") disp (c "check.max_displacement")

let judge_spanner_dc () =
  Harness.spanner_dc ~mode:Spanner.Config.Rss ~n_shards:3 ~service_time_us:20
    ~n_clients:12 ~n_keys:200 ~duration_s:1.0 ~seed:21 ()

let judge_gryff_dc () =
  Harness.gryff_dc
    ~env:
      Harness.Env.(
        default
        |> with_batching
             (Some { Sim.Net.batch_us = 50; batch_max = 32; adaptive = false }))
    ~mode:Gryff.Config.Rsc ~service_time_us:20 ~n_clients:12 ~conflict:0.2
    ~write_ratio:0.4 ~n_keys:200 ~duration_s:1.0 ~seed:13 ()

let test_judge_fault_free () =
  let r = judge_spanner_dc () in
  check bool "spanner-dc passes" true (Harness.Run.passed r);
  same_judgement "spanner-dc" ~mode:`Rss r;
  let r = judge_gryff_dc () in
  check bool "gryff-dc batched passes" true (Harness.Run.passed r);
  check bool "gryff-dc batched" true (Harness.Run.counter r "batch.envelopes" > 0);
  same_judgement "gryff-dc batched" ~mode:`Rss r

(* Gryff-WAN under the mixed nemesis. With retransmission every write is
   eventually acknowledged; without it, lost acknowledgements leave writes
   that the sweep records after the drain, judged with the rest in the
   order they were recorded. *)
let test_judge_chaos_sweeps () =
  let run ~retrans =
    let duration_s = 4.0 and seed = 2 in
    let schedule =
      Chaos.Nemesis.generate Chaos.Nemesis.Mixed ~n_sites:5
        ~duration_us:(Sim.Engine.sec duration_s) ~seed ()
    in
    Harness.gryff_wan ~n_clients:32
      ~env:Harness.Env.(default |> with_chaos schedule |> with_failover retrans)
      ~mode:Gryff.Config.Rsc ~conflict:0.2 ~write_ratio:0.5 ~n_keys:2000
      ~duration_s ~seed ()
  in
  let r = run ~retrans:true in
  check bool "retransmitted" true (Harness.Run.counter r "failover.rpc_retries" > 0);
  same_judgement "gryff-wan mixed, retransmission" ~mode:`Rss r;
  let r = run ~retrans:false in
  check bool "writes were swept" true
    (Harness.Run.counter r "op.unacked_commits_swept" > 0);
  same_judgement "gryff-wan mixed, sweeps" ~mode:`Rss r

(* WAN runs whose responses arrive far from claimed order: Spanner-RSS
   under Zipf keys, and Gryff-RSC on four hot keys. Both displace, so the
   work counters are compared on real out-of-order inserts. *)
let test_judge_wan_displaced () =
  let r =
    Harness.spanner_wan ~mode:Spanner.Config.Rss ~theta:0.5 ~n_keys:1000
      ~arrival_rate_per_sec:10.0 ~duration_s:1.0 ~seed:4 ()
  in
  check bool "spanner displaced" true (Harness.Run.counter r "check.work" > 0);
  same_judgement "spanner-wan" ~mode:`Rss r;
  let r =
    Harness.gryff_wan ~n_clients:8 ~mode:Gryff.Config.Rsc ~conflict:0.9
      ~write_ratio:0.5 ~n_keys:4 ~duration_s:1.0 ~seed:4 ()
  in
  check bool "gryff displaced" true (Harness.Run.counter r "check.work" > 0);
  same_judgement "gryff-wan" ~mode:`Rss r

let test_judge_stale_controls () =
  let control label protocol r reference =
    match (Harness.stale_control protocol r, reference) with
    | Some (CO.Fail m), Some (CO.Fail m') ->
      check string (label ^ ": same failure") m' m
    | got, _ ->
      Alcotest.failf "%s: control not caught: %s" label
        (match got with Some v -> show v | None -> "no eligible read")
  in
  let r = judge_spanner_dc () in
  (match r.Harness.Run.records with
  | Harness.Run.Spanner_txns a ->
    control "spanner" Chaos.Audit.Spanner_rss r
      (Chaos.Audit.spanner_stale_control
         ~check:(fun a -> fst (arrival_judge ~mode:`Rss (Harness.Run.Spanner_txns a)))
         a)
  | Harness.Run.Gryff_ops _ -> assert false);
  let r = judge_gryff_dc () in
  match r.Harness.Run.records with
  | Harness.Run.Gryff_ops a ->
    control "gryff" Chaos.Audit.Gryff_rsc r
      (Chaos.Audit.gryff_stale_control
         ~check:(fun a -> fst (arrival_judge ~mode:`Rss (Harness.Run.Gryff_ops a)))
         a)
  | Harness.Run.Spanner_txns _ -> assert false

let readable (r : Gryff.Cluster.record) =
  r.Gryff.Cluster.g_kind = Gryff.Cluster.Read && r.Gryff.Cluster.g_resp <> max_int

(* Keys need be neither dense nor non-negative: spread them by an
   order-preserving map into negative and sparse ints. Returns the records
   and, ascending, the keys of their completed reads. *)
let remapped_gryff () =
  let a =
    match (judge_gryff_dc ()).Harness.Run.records with
    | Harness.Run.Gryff_ops a ->
      Array.map
        (fun (r : Gryff.Cluster.record) ->
          { r with Gryff.Cluster.g_key = (7919 * r.Gryff.Cluster.g_key) - 500_000 })
        a
    | Harness.Run.Spanner_txns _ -> assert false
  in
  let keys =
    Array.to_list a |> List.filter readable
    |> List.map (fun (r : Gryff.Cluster.record) -> r.Gryff.Cluster.g_key)
    |> List.sort_uniq Int.compare
  in
  (a, keys)

(* Corrupt one completed read on key [hi], then one on key [lo < hi], so
   arrival order alone would name [hi]. *)
let corrupt_two a ~lo ~hi =
  let bad = Array.copy a in
  let corrupt key =
    let i = ref 0 in
    while not (readable bad.(!i) && bad.(!i).Gryff.Cluster.g_key = key) do incr i done;
    bad.(!i) <- { bad.(!i) with Gryff.Cluster.g_observed = Some (-1) }
  in
  corrupt hi;
  corrupt lo;
  bad

let gryff_judge a = Harness.judge ~mode:`Rss (Harness.Run.Gryff_ops a)

let names_key judge lo m =
  check bool (Printf.sprintf "%s names key %d: %s" judge lo m) true
    (String.starts_with ~prefix:(Printf.sprintf "key %d: " lo) m)

let judge_names_key lo a =
  match gryff_judge a with
  | CO.Fail m, _ -> names_key "judge" lo m
  | v, _ -> Alcotest.failf "corrupted history not caught: %s" (show v)

let test_judge_smallest_failing_key () =
  let a, keys = remapped_gryff () in
  let v, counters = gryff_judge a in
  check string "remapped keys pass" "pass" (show v);
  let v', counters' = arrival_judge ~mode:`Rss (Harness.Run.Gryff_ops a) in
  check string "reference agrees" (show v') (show v);
  check bool "same counters" true (counters = counters');
  let lo = List.nth keys 1 and hi = List.nth keys (List.length keys - 2) in
  check bool "a negative key is corrupted" true (lo < 0);
  judge_names_key lo (corrupt_two a ~lo ~hi)

(* The offline oracle judges the whole history at once, so it names the
   first bad read in recording order, whichever of the next sixteen keys
   is corrupted beside key [lo]; the judge still names [lo]. *)
let test_oracle_names_bad_read () =
  let a, keys = remapped_gryff () in
  let lo = List.nth keys 1 in
  List.iter
    (fun hi ->
      let bad = corrupt_two a ~lo ~hi in
      judge_names_key lo bad;
      let i = ref 0 in
      while bad.(!i) = a.(!i) do incr i done;
      check
        (Alcotest.result Alcotest.unit string)
        "oracle names the first bad read"
        (Error
           (Printf.sprintf "legality: txn %d read %d=-1 but no txn wrote it" !i
              bad.(!i).Gryff.Cluster.g_key))
        (Gryff.Cluster.check_records ~mode:Gryff.Config.Rsc bad))
    (List.filteri (fun j _ -> j >= 2 && j < 18) keys)

(* {2 The per-key split against its definition}

   The reference states the split directly: a stable sort of the record
   indices by key, then one checker per key. Random Gryff histories with
   dense, sparse, negative, extreme and repeated keys, shuffled into a
   random recording order, some reads corrupted so that several keys fail:
   the judge must give that reference's verdict (naming the smallest
   failing key) and counters, in both real-time modes. *)

let sorted_judge ~mode (a : Gryff.Cluster.record array) =
  let key i = a.(i).Gryff.Cluster.g_key in
  let order = Array.init (Array.length a) Fun.id in
  Array.stable_sort (fun i j -> Int.compare (key i) (key j)) order;
  let verdict = ref CO.Pass and added = ref 0 and work = ref 0 and disp = ref 0 in
  let lo = ref 0 in
  while !lo < Array.length order do
    let k = key order.(!lo) and oc = CO.create ~mode () in
    let hi = ref !lo in
    while !hi < Array.length order && key order.(!hi) = k do
      CO.add oc (gryff_witness a.(order.(!hi)));
      incr hi
    done;
    (match (!verdict, CO.result oc) with
    | CO.Pass, CO.Fail m -> verdict := CO.Fail (Printf.sprintf "key %d: %s" k m)
    | _ -> ());
    added := !added + CO.n_added oc;
    work := !work + CO.work oc;
    disp := max !disp (CO.max_displacement oc);
    lo := !hi
  done;
  (!verdict, (!added, !work, !disp))

(* Each drawn key gets a sequential register history (a key drawn twice
   gets two, whose carstamps interleave); about one drawn key in three has
   a read corrupted. *)
let gen_gryff_ops seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let draw_key =
    match int 3 with
    | 0 -> fun () -> int 4 - 2
    | 1 -> fun () -> int 2_000_001 - 1_000_000
    | _ -> fun () -> [| min_int; max_int; -7; 0; 5 |].(int 5)
  in
  let value = ref 1_000 and recs = ref [] in
  for _ = 0 to int 6 do
    let key = draw_key () and cs = ref Gryff.Carstamp.zero and cur = ref None in
    let t = ref (int 40) and key_recs = ref [] in
    for _ = 0 to int 12 do
      let proc = int 4 and inv = !t in
      t := !t + 1 + int 8;
      let resp = if int 10 = 0 then max_int else inv + 1 + int 20 in
      let kind, observed, written =
        match int 3 with
        | 0 -> (Gryff.Cluster.Read, !cur, None)
        | k ->
          incr value;
          let observed = !cur in
          cs :=
            if k = 1 then Gryff.Carstamp.for_write ~base:!cs ~cid:proc
            else Gryff.Carstamp.for_rmw ~base:!cs;
          cur := Some !value;
          if k = 1 then (Gryff.Cluster.Write, None, !cur)
          else (Gryff.Cluster.Rmw, observed, !cur)
      in
      key_recs :=
        { Gryff.Cluster.g_proc = proc; g_kind = kind; g_key = key; g_observed = observed;
          g_written = written; g_cs = !cs; g_inv = inv; g_resp = resp }
        :: !key_recs
    done;
    let key_recs = Array.of_list !key_recs in
    (if int 3 = 0 then
       match List.filter readable (Array.to_list key_recs) with
       | [] -> ()
       | reads ->
         let r = List.nth reads (int (List.length reads)) in
         Array.iteri
           (fun i r' -> if r' == r then key_recs.(i) <- { r with Gryff.Cluster.g_observed = Some (-1) })
           key_recs);
    recs := Array.to_list key_recs @ !recs
  done;
  let a = Array.of_list !recs in
  for i = Array.length a - 1 downto 1 do
    let j = int (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let prop_judge_matches_sorted_split =
  QCheck.Test.make ~name:"gryff split matches the sorted reference" ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let a = gen_gryff_ops seed in
      List.for_all
        (fun mode ->
          let v, counters = Harness.judge ~mode (Harness.Run.Gryff_ops a) in
          let v', counters' = sorted_judge ~mode a in
          show v = show v' && counters = counters')
        [ `Rss; `Strict ])

(* The generator reaches what the property is about: failing histories,
   several failing keys, both grouping paths (keys spanning at most half
   as many values as there are records, and sparser ones) and extreme
   keys. *)
let test_split_generator_coverage () =
  let fails = ref 0 and several = ref 0 and extreme = ref 0 and dense = ref 0 in
  for seed = 0 to 399 do
    let a = gen_gryff_ops seed in
    let keys = List.sort_uniq Int.compare (Array.to_list (Array.map (fun r -> r.Gryff.Cluster.g_key) a)) in
    let failing =
      List.filter
        (fun k ->
          let on_k = List.filter (fun r -> r.Gryff.Cluster.g_key = k) (Array.to_list a) in
          fst (sorted_judge ~mode:`Rss (Array.of_list on_k)) <> CO.Pass)
        keys
    in
    if failing <> [] then incr fails;
    if List.length failing >= 2 then incr several;
    if List.mem min_int keys && List.mem max_int keys then incr extreme;
    let span = List.nth keys (List.length keys - 1) - List.hd keys in
    if span >= 0 && span <= Array.length a / 2 then incr dense
  done;
  check bool (Printf.sprintf "failing (%d), several failing keys (%d), extreme (%d), dense (%d)"
                !fails !several !extreme !dense)
    true (!fails > 80 && !several > 15 && !extreme > 5 && !dense > 80 && !dense < 320)

(* {2 Allocation pins}

   The judge's minor words per record on two fixed histories, within 5%
   of the pinned figure. [Gc.minor_words] is exact; the minor counts of
   [Gc.counters] and [Gc.quick_stat] only move at minor collections. A
   per-record conversion that comes back moves the figure out of the band
   (a [string_of_int] per Gryff record reads 33.18, +6.4%), as does
   [Array.stable_sort] in the claimed-order sort (spanner-dc reads 2.33);
   a change that moves it on purpose updates the figure. *)

let judge_minor_words history =
  let n = Harness.Run.(match history with Spanner_txns a -> Array.length a | Gryff_ops a -> Array.length a) in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Harness.judge ~mode:`Rss history));
  (Gc.minor_words () -. before) /. float_of_int n

let test_judge_allocation_pins () =
  let pin label pinned history =
    let got = judge_minor_words history in
    check bool
      (Printf.sprintf "%s: minor words per record %.2f, pinned %.2f" label got pinned)
      true
      (Float.abs (got -. pinned) <= 0.05 *. pinned)
  in
  pin "gryff-dc" 31.18 (judge_gryff_dc ()).Harness.Run.records;
  pin "spanner-dc" 0.273 (judge_spanner_dc ()).Harness.Run.records

let suites =
  [
    ( "scale.online",
      [
        Alcotest.test_case "agrees with offline on valid histories" `Quick
          test_agreement_valid;
        Alcotest.test_case "agrees with offline on mutated histories" `Quick
          test_agreement_mutated;
        Alcotest.test_case "agrees with offline over many keys" `Quick
          test_agreement_many_keys;
        Alcotest.test_case "agrees with offline on first sightings" `Quick
          test_agreement_first_sight;
        Alcotest.test_case "agrees with offline on late keys" `Quick
          test_agreement_late_keys;
        Alcotest.test_case "cyclic history fails on sessions" `Quick
          test_cyclic_history_fails;
        Alcotest.test_case "create is small" `Quick test_create_is_small;
        Alcotest.test_case "in-order feed is linear" `Quick
          test_in_order_feed_is_linear;
        Alcotest.test_case "meter matches its definition" `Quick
          test_meter_reference;
        Alcotest.test_case "passes are exact-checker sat" `Quick
          test_passes_are_exact;
        Alcotest.test_case "online checking is passive" `Quick
          test_online_checking_is_passive;
      ] );
    ( "scale.judge",
      [
        Alcotest.test_case "matches arrival order, fault-free" `Quick
          test_judge_fault_free;
        Alcotest.test_case "matches arrival order with sweeps" `Quick
          test_judge_chaos_sweeps;
        Alcotest.test_case "matches arrival order on WAN runs" `Quick
          test_judge_wan_displaced;
        Alcotest.test_case "stale controls fail alike" `Quick
          test_judge_stale_controls;
        Alcotest.test_case "fail names the smallest key" `Quick
          test_judge_smallest_failing_key;
        Alcotest.test_case "oracle names the bad read" `Quick
          test_oracle_names_bad_read;
        QCheck_alcotest.to_alcotest prop_judge_matches_sorted_split;
        Alcotest.test_case "split generator coverage" `Quick
          test_split_generator_coverage;
        Alcotest.test_case "allocation per record is pinned" `Quick
          test_judge_allocation_pins;
      ] );
    ( "scale.golden",
      [
        Alcotest.test_case "spanner seeded trace digest" `Quick
          test_golden_spanner_trace;
        Alcotest.test_case "gryff seeded trace digest" `Quick
          test_golden_gryff_trace;
      ] );
  ]
