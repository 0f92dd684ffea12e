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

(* Queue a request whose continuation appends [txn] to [fired] when it
   fires, so a test can pin the order in which grants are delivered. *)
let queue_logged h fired kind ~key ~txn ~prio =
  let acquire =
    match kind with
    | `Read -> Spanner.Locks.acquire_read
    | `Write -> Spanner.Locks.acquire_write
  in
  acquire h.locks ~key ~txn ~priority:(prio, txn) (function
    | Spanner.Locks.Granted _ -> fired := txn :: !fired
    | Spanner.Locks.Aborted -> fired := -txn :: !fired)

let test_single_key_release_order () =
  (* One dirty key: its queue is scanned FIFO, granting every compatible
     request; the younger read stays behind the queued writer. *)
  let h = mk () in
  let fired = ref [] in
  check bool "holder" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  queue_logged h fired `Read ~key:1 ~txn:2 ~prio:20;
  queue_logged h fired `Read ~key:1 ~txn:3 ~prio:30;
  queue_logged h fired `Write ~key:1 ~txn:4 ~prio:40;
  queue_logged h fired `Read ~key:1 ~txn:5 ~prio:50;
  Sim.Engine.run h.engine;
  check (Alcotest.list int) "all wait" [] !fired;
  Spanner.Locks.release_all h.locks ~txn:1;
  Sim.Engine.run h.engine;
  check (Alcotest.list int) "readers in FIFO order" [ 2; 3 ] (List.rev !fired);
  Spanner.Locks.release_all h.locks ~txn:2;
  Spanner.Locks.release_all h.locks ~txn:3;
  Sim.Engine.run h.engine;
  check (Alcotest.list int) "then the writer" [ 2; 3; 4 ] (List.rev !fired);
  Spanner.Locks.release_all h.locks ~txn:4;
  Sim.Engine.run h.engine;
  check (Alcotest.list int) "then the last reader" [ 2; 3; 4; 5 ] (List.rev !fired)

let test_wound_chain_order () =
  (* An older reader wounds a holder of several keys: stripping it dirties
     them all at once, and the drain grants each key's waiter in the order
     it picks dirty keys. Seeded schedules depend on that order. Txn 25
     waits on the older reader's key, so it is granted only when the drain
     comes back to that key. *)
  let h = mk () in
  let fired = ref [] in
  let keys = [ 3; 17; 64; 100; 129; 1000 ] in
  List.iter
    (fun key -> check bool "victim holds" true (try_write h ~key ~txn:20 ~prio:20 = `Granted))
    keys;
  List.iteri
    (fun i key ->
      if i > 0 then queue_logged h fired `Write ~key ~txn:(30 + i) ~prio:(30 + i))
    keys;
  queue_logged h fired `Read ~key:3 ~txn:25 ~prio:25;
  Sim.Engine.run h.engine;
  check (Alcotest.list int) "waiters wait" [] !fired;
  queue_logged h fired `Read ~key:3 ~txn:10 ~prio:10;
  Sim.Engine.run h.engine;
  check bool "victim wounded" true (Hashtbl.mem h.wounded 20);
  check (Alcotest.list int) "grant order" [ 10; 34; 31; 35; 25; 32; 33 ] (List.rev !fired)

(* ------------------------------------------------------------------ *)
(* Differential test against the reference lock table                  *)
(* ------------------------------------------------------------------ *)

(* [Locks_ref] is the lock table as it stood before its uncontended fast
   paths, its entry retirement and its allocation-free scans, kept
   verbatim. Both tables run the same generated sequence of acquires,
   releases, restored writes (taking a key over from a holder, which a
   rebuild never does but the table tolerates), wounds and prepared marks
   over a few txns and keys, with
   equal priorities among them; each has its own engine and callback
   state. After every step, the trace records each side's delivered
   grants (sim time, request, outcome), its wound and escalation calls,
   and what it answers to [holds_read], [holds_write], [any_busy_in] and
   [wounds_inflicted]. A wound or an escalation may react at once, inside
   the drain that raised it, by releasing the victim (as a coordinator's
   abort does) or by issuing another acquire, so nested releases and
   acquires are driven too. Each reaction fires once: a nested acquire
   blocked behind the same prepared holder would otherwise escalate again
   on every re-scan. *)

type diff_kind = Rd | Wr

type reaction = Nothing | Abort_victim | Nested of diff_kind * int * int

type diff_op =
  | Acquire of diff_kind * int * int  (* kind, key, txn *)
  | Release of int
  | Restore of int * int  (* key, txn *)
  | Wound of int
  | Prepare of int
  | Unprepare of int
  | Run
  | Advance of int

type scenario = {
  prios : (int * int) array;  (* per txn *)
  on_wound : reaction array;  (* per wounded txn *)
  on_escalate : reaction array;  (* per escalated txn *)
  ops : diff_op list;
}

let n_diff_txns = 5

let n_diff_keys = 4

let pp_kind = function Rd -> "read" | Wr -> "write"

let pp_diff_op = function
  | Acquire (k, key, txn) -> Printf.sprintf "acquire %s key %d txn %d" (pp_kind k) key txn
  | Release txn -> Printf.sprintf "release %d" txn
  | Restore (key, txn) -> Printf.sprintf "restore write key %d txn %d" key txn
  | Wound txn -> Printf.sprintf "wound %d" txn
  | Prepare txn -> Printf.sprintf "prepare %d" txn
  | Unprepare txn -> Printf.sprintf "unprepare %d" txn
  | Run -> "run"
  | Advance n -> Printf.sprintf "advance %d" n

let pp_scenario s =
  let prio i (p, b) = Printf.sprintf "txn %d: priority (%d, %d)" i p b in
  let reaction what i = function
    | Nothing -> Printf.sprintf "txn %d %s: nothing" i what
    | Abort_victim -> Printf.sprintf "txn %d %s: release it" i what
    | Nested (k, key, txn) ->
      Printf.sprintf "txn %d %s: acquire %s key %d txn %d" i what (pp_kind k) key txn
  in
  String.concat "\n"
    (Array.to_list (Array.mapi prio s.prios)
    @ Array.to_list (Array.mapi (reaction "wounded") s.on_wound)
    @ Array.to_list (Array.mapi (reaction "escalated") s.on_escalate)
    @ List.map pp_diff_op s.ops)

let gen_scenario =
  let open QCheck.Gen in
  let kind = oneofl [ Rd; Wr ] in
  let key = int_bound (n_diff_keys - 1) and txn = int_bound (n_diff_txns - 1) in
  let op =
    frequency
      [
        (8, map3 (fun k key txn -> Acquire (k, key, txn)) kind key txn);
        (3, map (fun t -> Release t) txn);
        (1, map2 (fun key t -> Restore (key, t)) key txn);
        (1, map (fun t -> Wound t) txn);
        (2, map (fun t -> Prepare t) txn);
        (1, map (fun t -> Unprepare t) txn);
        (2, return Run);
        (1, map (fun n -> Advance n) (int_range 1 5));
      ]
  in
  let reaction =
    frequency
      [
        (2, return Nothing);
        (2, return Abort_victim);
        (2, map3 (fun k key txn -> Nested (k, key, txn)) kind key txn);
      ]
  in
  let reactions = array_repeat n_diff_txns reaction in
  map3
    (fun prios (on_wound, on_escalate) ops -> { prios; on_wound; on_escalate; ops })
    (array_repeat n_diff_txns (pair (int_bound 2) (int_bound 1)))
    (pair reactions reactions)
    (list_size (int_range 1 40) op)

(* One implementation under test, driven through the same operations. *)
type side = {
  engine : Sim.Engine.t;
  trace : string list ref;  (* newest first *)
  acquire : diff_kind -> key:int -> txn:int -> unit;
  release : int -> unit;
  restore : key:int -> txn:int -> unit;
  wound : int -> unit;
  set_prepared : int -> bool -> unit;
  observe : unit -> string;
}

(* The callback state and the knot through which a wound or an escalation
   reacts with the table that raised it. [make] builds the table from the four
   callbacks and returns its acquire, release-and-restore and observation
   functions. *)
let side scenario make =
  let engine = Sim.Engine.create () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let prepared = Hashtbl.create 8 and wounded = Hashtbl.create 8 in
  let next_req = ref 0 in
  let on_wound = Array.copy scenario.on_wound in
  let on_escalate = Array.copy scenario.on_escalate in
  let ops = ref None in
  let get () = Option.get !ops in
  let acquire kind ~key ~txn =
    let req = !next_req in
    incr next_req;
    let acq, _, _ = get () in
    acq kind ~key ~txn ~priority:scenario.prios.(txn) (fun outcome ->
        log (Printf.sprintf "t=%d req %d: %s" (Sim.Engine.now engine) req outcome))
  in
  let release txn =
    let _, (rel, _), _ = get () in
    rel txn
  in
  let react reactions txn =
    let reaction = reactions.(txn) in
    reactions.(txn) <- Nothing;
    match reaction with
    | Nothing -> ()
    | Abort_victim ->
      Hashtbl.replace wounded txn ();
      Hashtbl.remove prepared txn;
      release txn
    | Nested (kind, key, t) -> acquire kind ~key ~txn:t
  in
  let table_ops =
    make engine
      ~is_prepared:(fun txn -> Hashtbl.mem prepared txn)
      ~is_wounded:(fun txn -> Hashtbl.mem wounded txn)
      ~wound:(fun txn ->
        log (Printf.sprintf "wound %d" txn);
        Hashtbl.replace wounded txn ();
        react on_wound txn)
      ~wound_prepared:(fun txn ->
        log (Printf.sprintf "escalate %d" txn);
        react on_escalate txn)
  in
  ops := Some table_ops;
  {
    engine;
    trace;
    acquire;
    release;
    restore =
      (fun ~key ~txn ->
        let _, (_, restore), _ = get () in
        restore ~key ~txn ~priority:scenario.prios.(txn));
    wound = (fun txn -> Hashtbl.replace wounded txn ());
    set_prepared =
      (fun txn b ->
        if b then Hashtbl.replace prepared txn () else Hashtbl.remove prepared txn);
    observe =
      (fun () ->
        let _, _, obs = get () in
        obs ());
  }

let observe_with ~holds_read ~holds_write ~any_busy_in ~wounds () =
  let b = Buffer.create 64 in
  for key = 0 to n_diff_keys - 1 do
    for txn = 0 to n_diff_txns - 1 do
      Buffer.add_char b
        (match (holds_read ~key ~txn, holds_write ~key ~txn) with
        | false, false -> '.'
        | true, false -> 'r'
        | false, true -> 'w'
        | true, true -> 'W')
    done;
    Buffer.add_char b ' '
  done;
  List.iter
    (fun (lo, hi) -> Buffer.add_char b (if any_busy_in ~lo ~hi then 'B' else '-'))
    [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 2); (1, 4); (0, n_diff_keys) ];
  Printf.bprintf b " wounds=%d" (wounds ());
  Buffer.contents b

let ref_side scenario =
  side scenario (fun engine ~is_prepared ~is_wounded ~wound ~wound_prepared ->
      let t = Locks_ref.create engine ~is_prepared ~is_wounded ~wound ~wound_prepared in
      let acq kind ~key ~txn ~priority report =
        let k = function
          | Locks_ref.Granted { blocked_us } ->
            report (Printf.sprintf "granted after %d" blocked_us)
          | Locks_ref.Aborted -> report "aborted"
        in
        match kind with
        | Rd -> Locks_ref.acquire_read t ~key ~txn ~priority k
        | Wr -> Locks_ref.acquire_write t ~key ~txn ~priority k
      in
      ( acq,
        ((fun txn -> Locks_ref.release_all t ~txn), Locks_ref.restore_write t),
        observe_with
          ~holds_read:(Locks_ref.holds_read t)
          ~holds_write:(Locks_ref.holds_write t)
          ~any_busy_in:(Locks_ref.any_busy_in t)
          ~wounds:(fun () -> Locks_ref.wounds_inflicted t) ))

let new_side scenario =
  side scenario (fun engine ~is_prepared ~is_wounded ~wound ~wound_prepared ->
      let t =
        Spanner.Locks.create engine ~is_prepared ~is_wounded ~wound ~wound_prepared
      in
      let acq kind ~key ~txn ~priority report =
        let k = function
          | Spanner.Locks.Granted { blocked_us } ->
            report (Printf.sprintf "granted after %d" blocked_us)
          | Spanner.Locks.Aborted -> report "aborted"
        in
        match kind with
        | Rd -> Spanner.Locks.acquire_read t ~key ~txn ~priority k
        | Wr -> Spanner.Locks.acquire_write t ~key ~txn ~priority k
      in
      ( acq,
        ((fun txn -> Spanner.Locks.release_all t ~txn), Spanner.Locks.restore_write t),
        observe_with
          ~holds_read:(Spanner.Locks.holds_read t)
          ~holds_write:(Spanner.Locks.holds_write t)
          ~any_busy_in:(Spanner.Locks.any_busy_in t)
          ~wounds:(fun () -> Spanner.Locks.wounds_inflicted t) ))

let run_side s ops =
  let step op =
    (match op with
    | Acquire (kind, key, txn) -> s.acquire kind ~key ~txn
    | Release txn -> s.release txn
    | Restore (key, txn) -> s.restore ~key ~txn
    | Wound txn -> s.wound txn
    | Prepare txn -> s.set_prepared txn true
    | Unprepare txn -> s.set_prepared txn false
    | Run -> Sim.Engine.run s.engine
    | Advance n ->
      Sim.Engine.schedule s.engine ~after:n ignore;
      Sim.Engine.run s.engine);
    s.trace := s.observe () :: !(s.trace)
  in
  List.iter step (ops @ [ Run ]);
  List.rev !(s.trace)

let prop_matches_reference =
  QCheck.Test.make ~name:"matches the reference table step by step" ~count:2000
    (QCheck.make ~print:pp_scenario gen_scenario)
    (fun sc ->
      let expected = run_side (ref_side sc) sc.ops in
      let got = run_side (new_side sc) sc.ops in
      if expected = got then true
      else
        QCheck.Test.fail_reportf "reference:\n%s\n\nlock table:\n%s"
          (String.concat "\n" expected) (String.concat "\n" got))

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
        Alcotest.test_case "single-key release order" `Quick
          test_single_key_release_order;
        Alcotest.test_case "wound chain grant order" `Quick test_wound_chain_order;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 37 |])
          prop_matches_reference;
      ] );
  ]
