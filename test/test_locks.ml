(* Direct unit tests for the Spanner lock table: shared/exclusive semantics,
   upgrades, wound-wait priorities, prepared-holder escalation, queue
   fairness, and release processing. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

type harness = {
  engine : Sim.Engine.t;
  locks : Spanner.Locks.t;
  prepared : (int, unit) Hashtbl.t;
  wounded : (int, unit) Hashtbl.t;
  escalations : int list ref;
}

let mk () =
  let engine = Sim.Engine.create () in
  let prepared = Hashtbl.create 8 in
  let wounded = Hashtbl.create 8 in
  let escalations = ref [] in
  let locks =
    Spanner.Locks.create engine
      ~is_prepared:(fun txn -> Hashtbl.mem prepared txn)
      ~is_wounded:(fun txn -> Hashtbl.mem wounded txn)
      ~wound:(fun txn -> Hashtbl.replace wounded txn ())
      ~wound_prepared:(fun txn -> escalations := txn :: !escalations)
  in
  { engine; locks; prepared; wounded; escalations }

(* Acquire and record the outcome. *)
let try_read h ~key ~txn ~prio =
  let result = ref `Pending in
  Spanner.Locks.acquire_read h.locks ~key ~txn ~priority:(prio, txn) (function
    | Spanner.Locks.Granted _ -> result := `Granted
    | Spanner.Locks.Aborted -> result := `Aborted);
  Sim.Engine.run h.engine;
  !result

let try_write h ~key ~txn ~prio =
  let result = ref `Pending in
  Spanner.Locks.acquire_write h.locks ~key ~txn ~priority:(prio, txn) (function
    | Spanner.Locks.Granted _ -> result := `Granted
    | Spanner.Locks.Aborted -> result := `Aborted);
  Sim.Engine.run h.engine;
  !result

let test_shared_reads () =
  let h = mk () in
  check bool "r1" true (try_read h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "r2 shares" true (try_read h ~key:1 ~txn:2 ~prio:20 = `Granted);
  check bool "both held" true
    (Spanner.Locks.holds_read h.locks ~key:1 ~txn:1
    && Spanner.Locks.holds_read h.locks ~key:1 ~txn:2)

let test_write_excludes () =
  let h = mk () in
  check bool "w1" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  (* Younger writer must wait (no wound), so its request stays pending. *)
  check bool "w2 waits" true (try_write h ~key:1 ~txn:2 ~prio:20 = `Pending);
  Spanner.Locks.release_all h.locks ~txn:1;
  Sim.Engine.run h.engine;
  check bool "w2 granted after release" true
    (Spanner.Locks.holds_write h.locks ~key:1 ~txn:2)

let test_older_wounds_younger () =
  let h = mk () in
  check bool "young writer" true (try_write h ~key:1 ~txn:2 ~prio:20 = `Granted);
  (* Older requester wounds the younger holder and takes the lock. *)
  check bool "old granted" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "young wounded" true (Hashtbl.mem h.wounded 2);
  check bool "young lost lock" false (Spanner.Locks.holds_write h.locks ~key:1 ~txn:2)

let test_younger_waits () =
  let h = mk () in
  check bool "old holder" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "young waits" true (try_write h ~key:1 ~txn:2 ~prio:20 = `Pending);
  check bool "no wound" false (Hashtbl.mem h.wounded 1)

let test_retry_wounds_its_leaked_attempt () =
  (* Txn 1 is the first attempt of a logical transaction; its release was
     lost, so it still holds the write lock. Txn 2 is the retry: same
     priority, since retries keep the first attempt's. It must wound the
     dead attempt and get the lock rather than wait on itself forever. *)
  let h = mk () in
  let acquire txn =
    let result = ref `Pending in
    Spanner.Locks.acquire_write h.locks ~key:1 ~txn ~priority:(10, 7) (function
      | Spanner.Locks.Granted _ -> result := `Granted
      | Spanner.Locks.Aborted -> result := `Aborted);
    Sim.Engine.run h.engine;
    !result
  in
  check bool "first attempt" true (acquire 1 = `Granted);
  check bool "retry granted" true (acquire 2 = `Granted);
  check bool "leaked attempt wounded" true (Hashtbl.mem h.wounded 1);
  check bool "retry holds the lock" true
    (Spanner.Locks.holds_write h.locks ~key:1 ~txn:2)

let test_prepared_escalation () =
  let h = mk () in
  check bool "young holder" true (try_write h ~key:1 ~txn:2 ~prio:20 = `Granted);
  Hashtbl.replace h.prepared 2 ();
  (* Older requester cannot strip a prepared holder: it escalates to the
     holder's coordinator and waits. *)
  check bool "old waits" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Pending);
  check (Alcotest.list int) "escalated" [ 2 ] !(h.escalations);
  check bool "holder keeps lock" true (Spanner.Locks.holds_write h.locks ~key:1 ~txn:2)

let test_upgrade () =
  let h = mk () in
  check bool "read" true (try_read h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "upgrade to write" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "write held" true (Spanner.Locks.holds_write h.locks ~key:1 ~txn:1)

let test_upgrade_conflict_wounds_other_reader () =
  let h = mk () in
  check bool "old reader" true (try_read h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "young reader" true (try_read h ~key:1 ~txn:2 ~prio:20 = `Granted);
  (* The older reader upgrades: the younger reader gets wounded. *)
  check bool "upgrade" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "young wounded" true (Hashtbl.mem h.wounded 2)

let test_reader_waits_behind_older_queued_writer () =
  let h = mk () in
  check bool "holder" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "older writer queues" true (try_write h ~key:1 ~txn:2 ~prio:12 = `Pending);
  (* A younger read must not jump the older queued writer. *)
  check bool "younger read waits" true (try_read h ~key:1 ~txn:3 ~prio:30 = `Pending);
  Spanner.Locks.release_all h.locks ~txn:1;
  Sim.Engine.run h.engine;
  check bool "writer got it first" true (Spanner.Locks.holds_write h.locks ~key:1 ~txn:2);
  Spanner.Locks.release_all h.locks ~txn:2;
  Sim.Engine.run h.engine;
  check bool "then the reader" true (Spanner.Locks.holds_read h.locks ~key:1 ~txn:3)

let test_waiters_behind_blocked_head_proceed () =
  (* The queue must not be strictly FIFO-blocking: a read stuck behind an
     OLDER queued writer must not strand an unrelated waiter. Here two reads
     queue behind a writer; on release both proceed together. *)
  let h = mk () in
  check bool "holder" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "r2 waits" true (try_read h ~key:1 ~txn:2 ~prio:20 = `Pending);
  check bool "r3 waits" true (try_read h ~key:1 ~txn:3 ~prio:30 = `Pending);
  Spanner.Locks.release_all h.locks ~txn:1;
  Sim.Engine.run h.engine;
  check bool "both readers granted" true
    (Spanner.Locks.holds_read h.locks ~key:1 ~txn:2
    && Spanner.Locks.holds_read h.locks ~key:1 ~txn:3)

let test_wounded_waiter_aborted () =
  let h = mk () in
  check bool "holder" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  let outcome = ref `Pending in
  Spanner.Locks.acquire_write h.locks ~key:1 ~txn:2 ~priority:(20, 2) (function
    | Spanner.Locks.Granted _ -> outcome := `Granted
    | Spanner.Locks.Aborted -> outcome := `Aborted);
  Sim.Engine.run h.engine;
  (* Txn 2 is wounded elsewhere while queued; release must abort it, not
     grant. *)
  Hashtbl.replace h.wounded 2 ();
  Spanner.Locks.release_all h.locks ~txn:1;
  Sim.Engine.run h.engine;
  check bool "aborted, not granted" true (!outcome = `Aborted)

let test_wound_releases_all_keys () =
  let h = mk () in
  check bool "y holds 1" true (try_write h ~key:1 ~txn:2 ~prio:20 = `Granted);
  check bool "y holds 2" true (try_write h ~key:2 ~txn:2 ~prio:20 = `Granted);
  (* Wounding on key 1 frees key 2 as well: a waiter there gets in. *)
  let blocked = ref `Pending in
  Spanner.Locks.acquire_write h.locks ~key:2 ~txn:3 ~priority:(30, 3) (function
    | Spanner.Locks.Granted _ -> blocked := `Granted
    | Spanner.Locks.Aborted -> blocked := `Aborted);
  Sim.Engine.run h.engine;
  check bool "waiter pending" true (!blocked = `Pending);
  check bool "old wounds via key 1" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  Sim.Engine.run h.engine;
  check bool "waiter freed on key 2" true (!blocked = `Granted)

let test_abort_on_already_wounded_request () =
  let h = mk () in
  Hashtbl.replace h.wounded 9 ();
  check bool "wounded requester aborted immediately" true
    (try_read h ~key:1 ~txn:9 ~prio:10 = `Aborted)

let test_wound_counter () =
  let h = mk () in
  ignore (try_write h ~key:1 ~txn:2 ~prio:20);
  ignore (try_write h ~key:1 ~txn:1 ~prio:10);
  check int "one wound inflicted" 1 (Spanner.Locks.wounds_inflicted h.locks)

let test_reacquire_held_lock () =
  let h = mk () in
  check bool "first" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "again" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "read while writing" true (try_read h ~key:1 ~txn:1 ~prio:10 = `Granted)

let suites =
  [
    ( "spanner.locks",
      [
        Alcotest.test_case "shared reads" `Quick test_shared_reads;
        Alcotest.test_case "write excludes" `Quick test_write_excludes;
        Alcotest.test_case "older wounds younger" `Quick test_older_wounds_younger;
        Alcotest.test_case "younger waits" `Quick test_younger_waits;
        Alcotest.test_case "retry wounds its leaked attempt" `Quick
          test_retry_wounds_its_leaked_attempt;
        Alcotest.test_case "prepared escalation" `Quick test_prepared_escalation;
        Alcotest.test_case "upgrade" `Quick test_upgrade;
        Alcotest.test_case "upgrade wounds reader" `Quick
          test_upgrade_conflict_wounds_other_reader;
        Alcotest.test_case "anti-starvation ordering" `Quick
          test_reader_waits_behind_older_queued_writer;
        Alcotest.test_case "no head-of-line stranding" `Quick
          test_waiters_behind_blocked_head_proceed;
        Alcotest.test_case "wounded waiter aborted" `Quick test_wounded_waiter_aborted;
        Alcotest.test_case "wound releases all keys" `Quick test_wound_releases_all_keys;
        Alcotest.test_case "wounded requester" `Quick test_abort_on_already_wounded_request;
        Alcotest.test_case "wound counter" `Quick test_wound_counter;
        Alcotest.test_case "re-acquire held" `Quick test_reacquire_held_lock;
      ] );
  ]
