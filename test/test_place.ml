(* Tests for the elastic placement subsystem: the epoch-versioned
   directory, cached client views (redirect convergence), and live
   RSS-preserving migration under load — including the mutation control
   that breaks the fence on purpose and must be caught by the online
   checker. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Directory                                                           *)
(* ------------------------------------------------------------------ *)

let test_directory_base_layout () =
  let d = Place.Directory.create ~n_shards:3 () in
  check int "epoch starts at 0" 0 (Place.Directory.epoch d);
  for key = 0 to 20 do
    check int "base = key mod n_shards" (key mod 3) (Place.Directory.owner d key)
  done

let test_directory_epoch_monotone () =
  let d = Place.Directory.create ~n_shards:3 () in
  let e1 = Place.Directory.commit d ~lo:0 ~hi:10 ~owner:1 ~tm:100 in
  check int "first commit -> epoch 1" 1 e1;
  let e2 = Place.Directory.commit d ~lo:5 ~hi:15 ~owner:2 ~tm:200 in
  check int "second commit -> epoch 2" 2 e2;
  check int "epoch read-back" 2 (Place.Directory.epoch d);
  (* Newest assignment wins on overlap; older one still covers its rest. *)
  check int "[0,5) from first commit" 1 (Place.Directory.owner d 3);
  check int "[5,15) from second commit" 2 (Place.Directory.owner d 7);
  check int "outside both: base" (17 mod 3) (Place.Directory.owner d 17)

let test_directory_durable_log () =
  let d = Place.Directory.create ~n_shards:2 () in
  check int "no appends yet" 0 (Place.Directory.durable_appends d);
  ignore (Place.Directory.commit d ~lo:0 ~hi:4 ~owner:1 ~tm:10);
  ignore (Place.Directory.commit d ~lo:4 ~hi:8 ~owner:0 ~tm:20);
  check int "one append per commit" 2 (Place.Directory.durable_appends d);
  check bool "log bytes accounted" true (Place.Directory.durable_bytes d > 0);
  let log = Place.Directory.log_entries d in
  check int "log replays the assignments" 2 (List.length log);
  check bool "log = assignments" true
    (log = Place.Directory.assignments d);
  check
    (Alcotest.list int)
    "epochs logged in order" [ 1; 2 ]
    (List.map (fun a -> a.Place.Directory.a_epoch) log)

let prop_directory_owner_oracle =
  (* Any sequence of commits: the epoch equals the number of commits and
     the owner of every key is decided by the *latest* assignment covering
     it, falling back to the base layout. *)
  QCheck.Test.make ~name:"directory owner = newest covering assignment"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 20)
        (triple (int_range 0 50) (int_range 1 30) (int_range 0 3)))
    (fun moves ->
      let n_shards = 4 in
      let d = Place.Directory.create ~n_shards () in
      let applied =
        List.map
          (fun (lo, len, owner) ->
            let hi = lo + len in
            ignore (Place.Directory.commit d ~lo ~hi ~owner ~tm:0);
            (lo, hi, owner))
          moves
      in
      let oracle key =
        let rec latest = function
          | [] -> key mod n_shards
          | (lo, hi, owner) :: older ->
            if key >= lo && key < hi then owner else latest older
        in
        latest (List.rev applied)
      in
      Place.Directory.epoch d = List.length moves
      && List.for_all
           (fun key -> Place.Directory.owner d key = oracle key)
           (List.init 90 Fun.id))

(* ------------------------------------------------------------------ *)
(* Cached views: staleness and redirect convergence                    *)
(* ------------------------------------------------------------------ *)

let test_view_staleness_and_refresh () =
  let d = Place.Directory.create ~n_shards:3 () in
  let v = Place.Directory.view d in
  check bool "fresh view not stale" false (Place.Directory.stale v);
  check int "view at epoch 0" 0 (Place.Directory.view_epoch v);
  ignore (Place.Directory.commit d ~lo:0 ~hi:10 ~owner:2 ~tm:50);
  check bool "commit makes the view stale" true (Place.Directory.stale v);
  (* The stale view still answers from its snapshot (the old layout)... *)
  check int "stale lookup = old owner" (3 mod 3) (Place.Directory.view_owner v 3);
  (* ...until the bounce-triggered refresh converges it. *)
  Place.Directory.refresh v;
  check bool "refreshed view not stale" false (Place.Directory.stale v);
  check int "refresh count" 1 (Place.Directory.view_refreshes v);
  check int "converged lookup" 2 (Place.Directory.view_owner v 3)

let test_view_convergence_after_many_commits () =
  (* A view left stale across several migrations converges to the
     authoritative layout for every key after a single refresh — the
     redirect loop terminates after one bounce. *)
  let d = Place.Directory.create ~n_shards:4 () in
  let v = Place.Directory.view d in
  ignore (Place.Directory.commit d ~lo:0 ~hi:20 ~owner:1 ~tm:10);
  ignore (Place.Directory.commit d ~lo:10 ~hi:30 ~owner:3 ~tm:20);
  ignore (Place.Directory.commit d ~lo:5 ~hi:12 ~owner:0 ~tm:30);
  Place.Directory.refresh v;
  check int "view caught up" (Place.Directory.epoch d)
    (Place.Directory.view_epoch v);
  for key = 0 to 40 do
    check int "view agrees with directory" (Place.Directory.owner d key)
      (Place.Directory.view_owner v key)
  done

(* ------------------------------------------------------------------ *)
(* Live migration under load                                           *)
(* ------------------------------------------------------------------ *)

let reshard_run ?(no_fence = false) seed =
  let n_keys = 4_000 in
  Harness.spanner_wan
    ~env:
      Harness.Env.(
        default |> with_check `Online
        |> with_reshard
             [
               {
                 Harness.rs_at = 0.45;
                 rs_lo = 0;
                 rs_hi = n_keys / 8;
                 rs_dst = 1;
                 rs_no_fence = no_fence;
               };
             ])
    ~mode:Spanner.Config.Rss ~theta:0.9 ~n_keys ~arrival_rate_per_sec:60.0
    ~duration_s:6.0 ~seed ()

let test_migrate_under_load_passes () =
  (* Three seeds: the fenced migration completes mid-workload with zero
     failures and the online checker stays green. *)
  List.iter
    (fun seed ->
      let r = reshard_run seed in
      let c = Harness.Run.counter r in
      check bool
        (Printf.sprintf "seed %d: online checker Pass" seed)
        true
        (r.Harness.Run.check = Harness.Run.Pass);
      check int
        (Printf.sprintf "seed %d: migration completed" seed)
        1 (c "place.migrations");
      check int
        (Printf.sprintf "seed %d: no failed migration" seed)
        0 (c "place.migrations_failed");
      check bool
        (Printf.sprintf "seed %d: keys actually moved" seed)
        true
        (c "place.keys_moved" > 0);
      check bool
        (Printf.sprintf "seed %d: epoch bumped" seed)
        true
        (c "place.epoch" >= 1);
      check bool
        (Printf.sprintf "seed %d: stale routes were bounced" seed)
        true
        (c "place.redirects" > 0))
    [ 42; 43; 44 ]

let digest r =
  match r.Harness.Run.records with
  | Harness.Run.Spanner_txns a -> Digest.string (Marshal.to_string a [])
  | Harness.Run.Gryff_ops a -> Digest.string (Marshal.to_string a [])

let test_migrate_deterministic () =
  let a = reshard_run 42 and b = reshard_run 42 in
  check bool "same seed, byte-identical history" true (digest a = digest b)

let test_broken_fence_caught () =
  (* The mutation control: skip fence, drain and barrier. Writes that
     commit at the source during the ship window are missing at the
     destination, and the online checker must flag the stale read. *)
  let r = reshard_run ~no_fence:true 42 in
  match r.Harness.Run.check with
  | Harness.Run.Fail _ -> ()
  | Harness.Run.Pass -> Alcotest.fail "no-fence migration slipped past the checker"
  | Harness.Run.Unknown m -> Alcotest.fail ("checker returned Unknown: " ^ m)

let suites =
  [
    ( "place.directory",
      [
        Alcotest.test_case "base layout" `Quick test_directory_base_layout;
        Alcotest.test_case "epoch monotone, newest wins" `Quick
          test_directory_epoch_monotone;
        Alcotest.test_case "durable log" `Quick test_directory_durable_log;
        qt prop_directory_owner_oracle;
      ] );
    ( "place.view",
      [
        Alcotest.test_case "staleness and refresh" `Quick
          test_view_staleness_and_refresh;
        Alcotest.test_case "redirect convergence" `Quick
          test_view_convergence_after_many_commits;
      ] );
    ( "place.migrate",
      [
        Alcotest.test_case "migrate under load (3 seeds)" `Slow
          test_migrate_under_load_passes;
        Alcotest.test_case "deterministic" `Slow test_migrate_deterministic;
        Alcotest.test_case "broken fence caught" `Slow test_broken_fence_caught;
      ] );
  ]
