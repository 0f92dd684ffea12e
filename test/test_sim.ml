(* Tests for the discrete-event simulation substrate. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~after:30 (fun () -> log := "c" :: !log);
  Sim.Engine.schedule e ~after:10 (fun () -> log := "a" :: !log);
  Sim.Engine.schedule e ~after:20 (fun () -> log := "b" :: !log);
  Sim.Engine.run e;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ]
    (List.rev !log);
  check int "clock at last event" 30 (Sim.Engine.now e)

let test_engine_fifo_same_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.Engine.schedule e ~after:5 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  check (Alcotest.list int) "FIFO at equal times" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  let rec tick n =
    if n > 0 then begin
      incr hits;
      Sim.Engine.schedule e ~after:7 (fun () -> tick (n - 1))
    end
  in
  Sim.Engine.schedule e ~after:0 (fun () -> tick 5);
  Sim.Engine.run e;
  check int "five ticks" 5 !hits;
  (* tick(0) still fires (and does nothing) at t=35 *)
  check int "clock at final tick" 35 (Sim.Engine.now e)

let test_engine_until () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  for i = 1 to 10 do
    Sim.Engine.schedule e ~after:(i * 10) (fun () -> incr hits)
  done;
  Sim.Engine.run ~until:55 e;
  check int "only events <= 55 ran" 5 !hits;
  check int "clock stopped at until" 55 (Sim.Engine.now e);
  check int "rest still pending" 5 (Sim.Engine.pending e);
  Sim.Engine.run e;
  check int "drained" 10 !hits

let test_engine_past_schedule () =
  let e = Sim.Engine.create () in
  let at = ref (-1) in
  Sim.Engine.schedule e ~after:100 (fun () ->
      Sim.Engine.schedule_at e ~at:5 (fun () -> at := Sim.Engine.now e));
  Sim.Engine.run e;
  check int "past event fires now" 100 !at

let prop_engine_stable_order =
  (* N seeded random events against the stable-sort oracle: the flat-array
     event heap must execute same-instant events FIFO in scheduling order
     (this is what pins seeded schedules byte for byte). *)
  QCheck.Test.make ~name:"engine runs seeded events in stable-sorted order"
    ~count:200
    QCheck.(pair small_int (int_range 1 300))
    (fun (seed, n) ->
      let rng = Sim.Rng.make seed in
      let delays = List.init n (fun _ -> Sim.Rng.int rng 25) in
      let e = Sim.Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i d -> Sim.Engine.schedule e ~after:d (fun () -> log := (d, i) :: !log))
        delays;
      Sim.Engine.run e;
      List.rev !log
      = List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i d -> (d, i)) delays))

let prop_engine_slot_reuse =
  (* Popped slots are cleared by [remove_root] and reused by later pushes;
     several fill/drain rounds over the same engine must each still match
     the oracle, with nothing lost, duplicated, or resurrected. *)
  QCheck.Test.make ~name:"cleared event slots are reused soundly" ~count:100
    QCheck.(pair small_int (int_range 1 60))
    (fun (seed, n) ->
      let rng = Sim.Rng.make seed in
      let e = Sim.Engine.create () in
      let ok = ref true in
      for _round = 1 to 4 do
        let delays = List.init n (fun _ -> Sim.Rng.int rng 10) in
        let log = ref [] in
        List.iteri
          (fun i d ->
            Sim.Engine.schedule e ~after:d (fun () -> log := (d, i) :: !log))
          delays;
        Sim.Engine.run e;
        let oracle =
          List.stable_sort
            (fun (a, _) (b, _) -> compare a b)
            (List.mapi (fun i d -> (d, i)) delays)
        in
        if List.rev !log <> oracle then ok := false
      done;
      !ok && Sim.Engine.pending e = 0 && Sim.Engine.executed e = 4 * n)

let test_engine_empty () =
  let e = Sim.Engine.create () in
  check bool "step on empty" false (Sim.Engine.step e);
  Sim.Engine.run e;
  check int "nothing executed" 0 (Sim.Engine.executed e);
  Sim.Engine.schedule_at e ~at:42 (fun () -> ());
  check int "one pending" 1 (Sim.Engine.pending e);
  check bool "step runs it" true (Sim.Engine.step e);
  check int "clock at event" 42 (Sim.Engine.now e);
  check bool "empty again" false (Sim.Engine.step e);
  check int "none pending" 0 (Sim.Engine.pending e);
  check int "one executed" 1 (Sim.Engine.executed e)

(* A scripted run for the reference-order properties. An event is
   scheduled [off] after now ([off < 0] lands in the past and clamps), with
   one of four kinds; when it fires it cancels the event [kill] names (as
   [Cancel] does) and then schedules its [children]. *)
type ev_spec = {
  off : int;
  kind : int;
  kill : int option;
  children : ev_spec list;
}

(* [Cancel k] cancels event [k mod n], [n] the events scheduled so far: it
   may be queued, already run or already cancelled. Every third event is
   pushed with [schedule_at], which returns no handle, so it cannot be
   cancelled. *)
type op = Push of ev_spec | Step | Until of int | Cancel of int

let kind_names = [| "k0"; "k1"; "k2"; "k3" |]

let cancellable id = id mod 3 <> 0

(* The engine under test: the log is (event id, firing time), ids counting
   schedule calls, and [Sim.Engine.pending] is sampled after each op.
   [prios] installs a tie-break hook by kind. *)
let engine_log ~prios ops =
  let e = Sim.Engine.create () in
  Option.iter
    (fun p ->
      Sim.Engine.set_tie_perturb e
        (Some (fun k -> p.(Char.code k.[1] - Char.code '0'))))
    prios;
  let next_id = ref 0 and log = ref [] and handles = Hashtbl.create 64 in
  let cancel k =
    if !next_id > 0 then
      Option.iter (Sim.Engine.cancel e) (Hashtbl.find_opt handles (k mod !next_id))
  in
  let rec push spec =
    let id = !next_id in
    incr next_id;
    let kind = kind_names.(spec.kind) in
    let action () =
      log := (id, Sim.Engine.now e) :: !log;
      Option.iter cancel spec.kill;
      List.iter push spec.children
    in
    if cancellable id then
      Hashtbl.replace handles id
        (Sim.Engine.schedule_cancellable e ~kind ~after:spec.off action)
    else Sim.Engine.schedule_at e ~kind ~at:(Sim.Engine.now e + spec.off) action
  in
  let pending =
    List.map
      (fun op ->
        (match op with
        | Push spec -> push spec
        | Step -> ignore (Sim.Engine.step e)
        | Until d -> Sim.Engine.run ~until:(Sim.Engine.now e + d) e
        | Cancel k -> cancel k);
        Sim.Engine.pending e)
      ops
  in
  Sim.Engine.run e;
  (List.rev !log, Sim.Engine.now e, Sim.Engine.executed e, pending)

(* The reference: a plain list, popped by sorting on (time, prio, id); a
   cancel removes the entry if it is still queued. *)
let reference_log ~prios ops =
  let clock = ref 0 and next_id = ref 0 and log = ref [] and queue = ref [] in
  let cancel k =
    if !next_id > 0 then begin
      let id = k mod !next_id in
      if cancellable id then queue := List.filter (fun (_, _, i, _) -> i <> id) !queue
    end
  in
  let rec push spec =
    let id = !next_id in
    incr next_id;
    let prio = match prios with None -> 0 | Some p -> p.(spec.kind) in
    queue := (max !clock (!clock + spec.off), prio, id, spec) :: !queue
  and pop () =
    match sorted () with
    | [] -> ()
    | (time, _, id, spec) :: rest ->
      queue := rest;
      clock := time;
      log := (id, time) :: !log;
      Option.iter cancel spec.kill;
      List.iter push spec.children
  and sorted () =
    let key (time, prio, id, _) = (time, prio, id) in
    List.sort (fun a b -> compare (key a) (key b)) !queue
  in
  let rec until u =
    match sorted () with
    | [] -> ()
    | (time, _, _, _) :: _ when time > u -> clock := u
    | _ ->
      pop ();
      until u
  in
  let pending =
    List.map
      (fun op ->
        (match op with
        | Push spec -> push spec
        | Step -> pop ()
        | Until d -> until (!clock + d)
        | Cancel k -> cancel k);
        List.length !queue)
      ops
  in
  while !queue <> [] do
    pop ()
  done;
  (List.rev !log, !clock, List.length !log, pending)

let rec random_spec rng depth =
  {
    off = Sim.Rng.int rng 61 - 20;
    kind = Sim.Rng.int rng 4;
    kill = (if Sim.Rng.int rng 4 = 0 then Some (Sim.Rng.int rng 1000) else None);
    children =
      (if depth = 0 then []
       else List.init (Sim.Rng.int rng 3) (fun _ -> random_spec rng (depth - 1)));
  }

let random_prios rng =
  if Sim.Rng.int rng 3 = 0 then None
  else Some (Array.init 4 (fun _ -> Sim.Rng.int rng 5 - 2))

let prop_engine_reference_order =
  (* Random schedules against the reference: tie-break priorities that are
     negative, zero and positive, offsets into the past, events scheduled
     and cancelled from inside actions, and pushes interleaved with [step],
     [run ~until] and cancels of queued, run and cancelled events (which
     leave tombstones at the root and compact the heap mid-[step]).
     Offsets are tight, so same-instant ties are common. *)
  QCheck.Test.make ~name:"random schedules pop in (time, prio, seq) order"
    ~count:300
    QCheck.(pair small_int (int_range 1 300))
    (fun (seed, n) ->
      let rng = Sim.Rng.make seed in
      let prios = random_prios rng in
      let ops =
        List.init n (fun _ ->
            match Sim.Rng.int rng 20 with
            | r when r < 11 -> Push (random_spec rng 2)
            | r when r < 15 -> Step
            | r when r < 17 -> Until (Sim.Rng.int rng 30)
            | _ -> Cancel (Sim.Rng.int rng 1000))
      in
      engine_log ~prios ops = reference_log ~prios ops)

let test_engine_partial_child_groups () =
  (* A 4-ary heap breaks, if anywhere, at the last parent's partial group of
     children. Fill every size up to 100 and around the full trees of 341
     and 1365 events, pop half, refill half, drain; each run against the
     reference. *)
  let rng = Sim.Rng.make 7 in
  let sizes =
    List.init 101 Fun.id @ [ 339; 340; 341; 342; 343; 1363; 1364; 1365; 1366; 1367 ]
  in
  List.iter
    (fun n ->
      let prios = if n mod 2 = 0 then None else Some [| -1; 0; 1; 0 |] in
      let push () =
        Push
          {
            off = Sim.Rng.int rng 8;
            kind = Sim.Rng.int rng 4;
            kill = None;
            children = [];
          }
      in
      let ops =
        List.init n (fun _ -> push ())
        @ List.init (n / 2) (fun _ -> Step)
        @ List.init (n / 2) (fun _ -> push ())
      in
      let got = engine_log ~prios ops and want = reference_log ~prios ops in
      check bool (Printf.sprintf "size %d" n) true (got = want))
    sizes

let test_engine_slot_reuse_across_growth () =
  (* Push n, pop n/2, push 3n: the pool doubles (and doubles again) while
     half its slots are recycled ones, so new and reused slots mix in one
     heap. Every closure runs exactly once, in reference order. *)
  let rng = Sim.Rng.make 13 in
  List.iter
    (fun n ->
      List.iter
        (fun prios ->
          let push () =
            Push
              {
                off = Sim.Rng.int rng 8;
                kind = Sim.Rng.int rng 4;
                kill = None;
                children = [];
              }
          in
          let ops =
            List.init n (fun _ -> push ())
            @ List.init (n / 2) (fun _ -> Step)
            @ List.init (3 * n) (fun _ -> push ())
          in
          let ((log, _, executed, _) as got) = engine_log ~prios ops in
          let ids = List.sort compare (List.map fst log) in
          let label = Printf.sprintf "n=%d prios=%b" n (prios <> None) in
          check (Alcotest.list int) (label ^ ": each once") (List.init (4 * n) Fun.id)
            ids;
          check int (label ^ ": executed") (4 * n) executed;
          check bool (label ^ ": reference order") true
            (got = reference_log ~prios ops))
        [ None; Some [| 1; -2; 0; 2 |] ])
    [ 8; 16; 17; 33; 100; 1000 ]

let test_engine_profile_counts () =
  (* Kinds live in the slot pool beside the closures. The profile counts
     every event under the kind it was scheduled with: events queued before
     profiling was enabled, events pushed while the pool grows, and events
     an action pushes into the slot it has just vacated. *)
  let rng = Sim.Rng.make 11 in
  let e = Sim.Engine.create () in
  let kinds = Array.append kind_names [| "other" |] in
  let scheduled = Array.make (Array.length kinds) 0 in
  let rec push spec =
    let k = if Sim.Rng.int rng 5 = 0 then 4 else spec.kind in
    scheduled.(k) <- scheduled.(k) + 1;
    let action () = List.iter push spec.children in
    if k = 4 then Sim.Engine.schedule e ~after:(max 0 spec.off) action
    else Sim.Engine.schedule e ~kind:kinds.(k) ~after:(max 0 spec.off) action
  in
  for _ = 1 to 24 do
    push (random_spec rng 2)
  done;
  Sim.Engine.enable_profiling ~sample_queue_every:1 e;
  for _ = 1 to 100 do
    push (random_spec rng 2)
  done;
  check bool "the pool grew past 64 slots" true (Sim.Engine.pending e > 64);
  for _ = 1 to 50 do
    ignore (Sim.Engine.step e);
    push (random_spec rng 1)
  done;
  Sim.Engine.run e;
  let want =
    List.filter_map
      (fun k -> if scheduled.(k) > 0 then Some (kinds.(k), scheduled.(k)) else None)
      (List.init (Array.length kinds) Fun.id)
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "events per kind"
    want
    (List.map (fun (k, n, _) -> (k, n)) (Sim.Engine.profile e));
  check int "every event profiled" (Sim.Engine.executed e)
    (Array.fold_left ( + ) 0 scheduled)

(* Never inlined, so no frame of the test holds the payload. *)
let[@inline never] schedule_payload e w i ~at =
  let payload = Bytes.create 16 in
  Weak.set w i (Some payload);
  Sim.Engine.schedule_at e ~at (fun () -> ignore (Sys.opaque_identity payload))

let test_engine_drops_popped_closures () =
  (* Popped slots are cleared: once an event has run, the engine holds no
     path to its closure, while every queued closure stays reachable. *)
  let n = 40 in
  let at i = (i * 7 mod n) + 1 in
  let e = Sim.Engine.create () in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    schedule_payload e w i ~at:(at i)
  done;
  Sim.Engine.run ~until:(n / 2) e;
  Gc.full_major ();
  for i = 0 to n - 1 do
    check bool
      (Printf.sprintf "payload at %d reachable iff queued" (at i))
      (at i > n / 2) (Weak.check w i)
  done;
  Sim.Engine.run e;
  Gc.full_major ();
  for i = 0 to n - 1 do
    check bool (Printf.sprintf "payload at %d dropped" (at i)) false
      (Weak.check w i)
  done

let test_engine_allocation_free () =
  (* Once the arrays have grown, a push and a pop allocate nothing. *)
  let e = Sim.Engine.create () in
  let action () = () in
  for i = 1 to 5_000 do
    Sim.Engine.schedule e ~after:i action
  done;
  Sim.Engine.run e;
  let before = Gc.minor_words () in
  for i = 1 to 5_000 do
    Sim.Engine.schedule e ~after:(i mod 97) action
  done;
  Sim.Engine.run e;
  let words = Gc.minor_words () -. before in
  check bool (Printf.sprintf "%.0f minor words for 10k queue ops" words) true
    (words < 100.0)

let test_time_conversions () =
  check int "ms" 62_000 (Sim.Engine.ms 62.0);
  check int "sec" 1_500_000 (Sim.Engine.sec 1.5);
  check bool "roundtrip" true (abs_float (Sim.Engine.to_ms 62_000 -. 62.0) < 1e-9);
  check bool "to_sec" true (abs_float (Sim.Engine.to_sec 500_000 -. 0.5) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Sim.Rng.make 42 and b = Sim.Rng.make 42 in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
  check (Alcotest.list int) "same seed, same stream" xs ys

let test_rng_split_independent () =
  let root = Sim.Rng.make 7 in
  let child = Sim.Rng.split root in
  let xs = List.init 20 (fun _ -> Sim.Rng.int child 1000) in
  (* Drawing from the parent must not change what the child would produce:
     recreate the same child from a fresh root. *)
  let root' = Sim.Rng.make 7 in
  let child' = Sim.Rng.split root' in
  ignore (Sim.Rng.int root' 1000);
  let ys = List.init 20 (fun _ -> Sim.Rng.int child' 1000) in
  check (Alcotest.list int) "child stream reproducible" xs ys

let prop_rng_int_range =
  QCheck.Test.make ~name:"rng int in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let r = Sim.Rng.make seed in
      let x = Sim.Rng.int r n in
      x >= 0 && x < n)

let prop_rng_exponential_positive =
  QCheck.Test.make ~name:"exponential samples positive" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, mean) ->
      let r = Sim.Rng.make seed in
      Sim.Rng.exponential r ~mean >= 0.0)

let test_rng_exponential_mean () =
  let r = Sim.Rng.make 11 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential r ~mean:10.0
  done;
  let mean = !sum /. float_of_int n in
  check bool "mean within 2%" true (abs_float (mean -. 10.0) < 0.2)

let test_rng_bool_bias () =
  let r = Sim.Rng.make 13 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Sim.Rng.bool r 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  check bool "p=0.3 within 2%" true (abs_float (p -. 0.3) < 0.02)

(* [Sim.Rng] computes its float draws itself, from the same 64-bit draws as
   [Random.State.float]: a twin stream seeded as [Sim.Rng.make] seeds must
   give bit-identical values, or every seeded schedule would move. *)
let test_rng_matches_stdlib () =
  let seed = 5 in
  let r = Sim.Rng.make seed
  and s = Random.State.make [| seed; 0x5f5e_1007; seed lxor 0x2545_f491 |] in
  let same name a b =
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      Alcotest.failf "%s: %h <> %h" name a b
  in
  for i = 1 to 250_000 do
    let x = float_of_int (i land 1023) /. 7.0 in
    same "float" (Sim.Rng.float r x) (Random.State.float s x);
    same "uniform" (Sim.Rng.uniform r) (Random.State.float s 1.0);
    let p = float_of_int (i land 63) /. 64.0 in
    check bool "bool" (Random.State.float s 1.0 < p) (Sim.Rng.bool r p);
    same "exponential"
      (Sim.Rng.exponential r ~mean:3.0)
      (-3.0 *. log (1.0 -. Random.State.float s 1.0));
    let base = i * 37 and jitter = float_of_int (i land 15) /. 10.0 in
    check int "jittered"
      (int_of_float
         (float_of_int base *. (1.0 +. Random.State.float s jitter)))
      (Sim.Rng.jittered r base jitter)
  done

let test_rng_bool_allocation_free () =
  let r = Sim.Rng.make 3 and hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    if Sim.Rng.bool r 0.5 then incr hits
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.0) "minor words for 100k bool draws" 0.0 words;
  check bool "draws vary" true (!hits > 0 && !hits < 100_000)

(* ------------------------------------------------------------------ *)
(* Int_table                                                           *)
(* ------------------------------------------------------------------ *)

(* Keys whose home slot in a 16-slot table is one of the last two, by the
   table's hash (the top 4 bits of the product with its multiplier): eight
   of them fill a probe run that wraps past the end of the array, so
   removing them has to shift entries back across the wrap. *)
let wrapping_keys =
  let home k = (k * 0x4F1B_BCDC_BFA5_3E0B) lsr 59 in
  let rec go k acc n =
    if n = 0 then List.rev acc
    else if home k >= 14 then go (k + 1) (k :: acc) (n - 1)
    else go (k + 1) acc n
  in
  go 1000 [] 8

type int_table_op =
  | Replace of int * int
  | Remove of int
  | Find of int
  | Reset

let int_table_key =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-40) 40);
        (3, oneofl wrapping_keys);
        (1, oneofl [ 0; min_int; max_int; min_int + 1; max_int - 1 ]);
      ])

let int_table_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
             | Remove k -> Printf.sprintf "remove %d" k
             | Find k -> Printf.sprintf "find %d" k
             | Reset -> "reset")
           ops))
    QCheck.Gen.(
      list_size (int_range 0 300)
        (frequency
           [
             (8, map2 (fun k v -> Replace (k, v)) int_table_key small_int);
             (5, map (fun k -> Remove k) int_table_key);
             (5, map (fun k -> Find k) int_table_key);
             (1, return Reset);
           ]))

(* Every operation against the stdlib table as the model: lookups through
   [find], [find_opt] and [mem], [length] after every step, and the whole
   contents through [fold], compared as a set. *)
let prop_int_table_model =
  QCheck.Test.make ~name:"int table agrees with Hashtbl" ~count:500 int_table_ops
    (fun ops ->
      let t = Sim.Int_table.create () and m = Hashtbl.create 16 in
      let agrees k =
        let expect = Hashtbl.find_opt m k in
        Sim.Int_table.find_opt t k = expect
        && Sim.Int_table.mem t k = Option.is_some expect
        && (match Sim.Int_table.find t k with
           | v -> expect = Some v
           | exception Not_found -> expect = None)
      in
      let contents () =
        List.sort compare (Sim.Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
        = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])
      in
      List.for_all
        (fun op ->
          let key_ok =
            match op with
            | Replace (k, v) ->
              Sim.Int_table.replace t k v;
              Hashtbl.replace m k v;
              agrees k
            | Remove k ->
              Sim.Int_table.remove t k;
              Hashtbl.remove m k;
              agrees k
            | Find k -> agrees k
            | Reset ->
              Sim.Int_table.reset t;
              Hashtbl.reset m;
              true
          in
          key_ok
          && Sim.Int_table.length t = Hashtbl.length m
          && List.for_all agrees wrapping_keys
          && contents ())
        ops)

(* A run that wraps, removed from its middle out: each removal must keep
   every other key reachable; then growth from 16 slots keeps them all. *)
let test_int_table_wrapping_run () =
  let t = Sim.Int_table.create () in
  List.iter (fun k -> Sim.Int_table.replace t k (-k)) wrapping_keys;
  let alive = ref wrapping_keys in
  List.iter
    (fun k ->
      Sim.Int_table.remove t k;
      alive := List.filter (( <> ) k) !alive;
      check bool "removed" false (Sim.Int_table.mem t k);
      List.iter
        (fun k' -> check int "still bound" (-k') (Sim.Int_table.find t k'))
        !alive)
    [ List.nth wrapping_keys 3; List.nth wrapping_keys 0; List.nth wrapping_keys 6 ];
  for k = 0 to 99 do
    Sim.Int_table.replace t k k
  done;
  check int "length after growth" 105 (Sim.Int_table.length t);
  List.iter (fun k' -> check int "kept across growth" (-k') (Sim.Int_table.find t k')) !alive

(* Lookups, replacing a bound key and removing (then re-binding) a key
   allocate nothing once the table has its slots. *)
let test_int_table_allocation_free () =
  let t = Sim.Int_table.create () and n = 1000 in
  for k = 0 to n - 1 do
    Sim.Int_table.replace t (k * 7) k
  done;
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 19_999 do
    let k = i mod n * 7 in
    sum := !sum + Sim.Int_table.find t k;
    if Sim.Int_table.mem t (k + 1) then incr sum;
    Sim.Int_table.replace t k i;
    Sim.Int_table.remove t k;
    Sim.Int_table.replace t k i
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.0) "minor words for 100k operations" 0.0 words;
  check int "length kept" n (Sim.Int_table.length t);
  check bool "lookups ran" true (!sum > 0)

(* ------------------------------------------------------------------ *)
(* Net                                                                 *)
(* ------------------------------------------------------------------ *)

let mk_net ?(jitter = 0.0) () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.make 1 in
  let rtt = [| [| 0.2; 62.0 |]; [| 62.0; 0.2 |] |] in
  (e, Sim.Net.create e ~rng ~rtt_ms:rtt ~jitter ())

let test_net_delay () =
  let e, net = mk_net () in
  let arrived = ref (-1) in
  Sim.Net.send net ~src:0 ~dst:1 (fun () -> arrived := Sim.Engine.now e);
  Sim.Engine.run e;
  check int "one-way = RTT/2" 31_000 !arrived

let test_net_local_delay () =
  let e, net = mk_net () in
  let arrived = ref (-1) in
  Sim.Net.send net ~src:1 ~dst:1 (fun () -> arrived := Sim.Engine.now e);
  Sim.Engine.run e;
  check int "local = diagonal/2" 100 !arrived

let test_net_triangular_matrix () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.make 1 in
  (* lower-triangular input: upper entries zero *)
  let rtt = [| [| 0.2; 0.0 |]; [| 80.0; 0.2 |] |] in
  let net = Sim.Net.create e ~rng ~rtt_ms:rtt ~jitter:0.0 () in
  check int "mirrored" (Sim.Net.base_one_way net ~src:0 ~dst:1) 40_000;
  check int "given" (Sim.Net.base_one_way net ~src:1 ~dst:0) 40_000

let test_net_jitter_bounds () =
  let e, net = mk_net ~jitter:0.1 () in
  let count = ref 0 in
  for _ = 1 to 100 do
    Sim.Net.send net ~src:0 ~dst:1 (fun () -> incr count)
  done;
  Sim.Engine.run e;
  check int "all delivered" 100 !count;
  (* Last delivery cannot be later than base * 1.1. *)
  check bool "bounded by jitter" true (Sim.Engine.now e <= 34_100);
  check int "messages counted" 100 (Sim.Net.messages_sent net)

let test_net_message_accounting () =
  let e, net = mk_net () in
  Sim.Net.send ~bytes:100 net ~src:0 ~dst:1 (fun () -> ());
  Sim.Net.send ~bytes:50 net ~src:1 ~dst:0 (fun () -> ());
  Sim.Engine.run e;
  check int "messages" 2 (Sim.Net.messages_sent net);
  check int "bytes" 150 (Sim.Net.bytes_sent net)

(* Minor words per delivered message on an untraced, fault-free network
   with a no-op handler. The jittered delay is [Sim.Rng.jittered], which
   returns an int, so [send] allocates nothing: the transmit step and the
   engine event allocate nothing either, and a closure built per message
   shows here (it adds 10). With the draw boxed, as through
   [Sim.Rng.float] across modules, [send] reads 2. [post] without a
   batching policy pays one closure, the [fun () -> handler 0] adapter.
   Sends go out
   in rounds of 1000 so the engine's arrays reach their final size in a
   warm-up round. *)
let net_words_per_message deliver =
  let e, net = mk_net ~jitter:0.02 () in
  let round () =
    for i = 1 to 1000 do
      deliver net ~src:(i land 1) ~dst:1
    done;
    Sim.Engine.run e
  in
  round ();
  let n_rounds = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to n_rounds do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  check int "all delivered" ((n_rounds + 1) * 1000) (Sim.Net.messages_sent net);
  words /. float_of_int (n_rounds * 1000)

let test_net_allocation () =
  let noop () = () and noop_i (_ : int) = () in
  let send =
    net_words_per_message (fun net ~src ~dst -> Sim.Net.send net ~src ~dst noop)
  in
  let post =
    net_words_per_message (fun net ~src ~dst -> Sim.Net.post net ~src ~dst noop_i)
  in
  check (Alcotest.float 0.0) "send: minor words per message" 0.0 send;
  check (Alcotest.float 0.0) "unbatched post: minor words per message" 4.0 post

(* Traced and untraced delivery must be the same run: one seeded traffic
   pattern over four sites with every link fault armed (loss, duplication
   and reorder on every link, a latency spike on one, one blocked link and
   one crashed site), sent once without and once with a live tracer. *)
type net_run = {
  log : (int * int * int * int) list;  (* (message, member index, dst, time) *)
  counters : (string * int) list;
  trace : Obs.Trace.t;
}

let faulty_run ~traced ~batch ~use_post =
  let e = Sim.Engine.create () in
  let rtt =
    [| [| 0.2; 10.0; 30.0; 50.0 |]; [| 10.0; 0.2; 20.0; 40.0 |];
       [| 30.0; 20.0; 0.2; 60.0 |]; [| 50.0; 40.0; 60.0; 0.2 |] |]
  in
  let net = Sim.Net.create e ~rng:(Sim.Rng.make 7) ~rtt_ms:rtt () in
  for src = 0 to 3 do
    for dst = 0 to 3 do
      Sim.Net.set_loss net ~src ~dst 0.1;
      Sim.Net.set_dup net ~src ~dst 0.2;
      Sim.Net.set_reorder net ~src ~dst ~prob:0.3 ~max_extra_us:8_000
    done
  done;
  Sim.Net.set_extra_delay net ~src:1 ~dst:2 3_000;
  Sim.Net.block_link net ~src:0 ~dst:2;
  Sim.Net.set_down net 3;
  Sim.Net.set_batching net batch;
  let trace = if traced then Obs.Trace.create () else Obs.Trace.disabled in
  Sim.Net.set_tracer net trace;
  let log = ref [] in
  let rec transmit ~id ~src ~dst ~bytes =
    let delivered i =
      log := (id, i, dst, Sim.Engine.now e) :: !log;
      (* Every third message is answered, so deliveries send from inside
         hop spans and replies meet envelopes still in flight. *)
      if id mod 3 = 0 && id < 10_000 then
        transmit ~id:(id + 10_000) ~src:dst ~dst:src ~bytes:(bytes + 1)
    in
    if use_post then Sim.Net.post ~bytes net ~src ~dst delivered
    else Sim.Net.send ~bytes net ~src ~dst (fun () -> delivered 0)
  in
  let pick = Sim.Rng.make 11 in
  for id = 0 to 1_999 do
    let src = Sim.Rng.int pick 4 and dst = Sim.Rng.int pick 4 in
    Sim.Engine.schedule e ~after:(id * 150) (fun () ->
        transmit ~id ~src ~dst ~bytes:(40 + (id mod 50)))
  done;
  Sim.Engine.run e;
  let counters =
    Sim.Net.
      [ ("sent", messages_sent net); ("bytes", bytes_sent net);
        ("dropped", messages_dropped net); ("crash", dropped_crash net);
        ("partition", dropped_partition net); ("loss", dropped_loss net);
        ("duplicated", messages_duplicated net);
        ("delayed", messages_delayed net); ("envelopes", batch_envelopes net);
        ("members", batch_members net); ("deadline", batch_flush_deadline net);
        ("size", batch_flush_size net); ("idle", batch_flush_idle net);
        ("max_members", batch_max_members net) ]
  in
  { log = List.rev !log; counters; trace }

let test_net_traced_matches_untraced () =
  let cases =
    [ ("send", None, false);
      ("unbatched post", None, true);
      ("post with deadline and size flushes",
       Some { Sim.Net.batch_us = 2_000; batch_max = 4; adaptive = false }, true);
      ("adaptive post",
       Some { Sim.Net.batch_us = 2_000; batch_max = 4; adaptive = true }, true) ]
  in
  List.iter
    (fun (name, batch, use_post) ->
      let plain = faulty_run ~traced:false ~batch ~use_post in
      let traced = faulty_run ~traced:true ~batch ~use_post in
      let fired counter = List.assoc counter plain.counters > 0 in
      let fired_all = List.for_all fired in
      check bool (name ^ ": every fault fired") true
        (fired_all [ "crash"; "partition"; "loss"; "duplicated"; "delayed" ]);
      (match batch with
      | Some { Sim.Net.adaptive = false; _ } ->
        check bool (name ^ ": deadline and size flushes") true
          (fired_all [ "deadline"; "size" ])
      | Some { Sim.Net.adaptive = true; _ } ->
        check bool (name ^ ": idle flushes") true (fired "idle")
      | None -> ());
      check bool (name ^ ": same handler order and times") true
        (plain.log = traced.log);
      check
        Alcotest.(list (pair string int))
        (name ^ ": same counters") plain.counters traced.counters;
      check int (name ^ ": untraced run records nothing") 0
        (Obs.Trace.n_spans plain.trace);
      let spans = Array.to_list (Obs.Trace.spans traced.trace) in
      (* One delivery event runs member 0 of its envelope exactly once. *)
      let deliveries =
        List.filter_map
          (fun (_, i, dst, ts) -> if i = 0 then Some (dst, ts) else None)
          plain.log
      in
      let hops =
        List.filter_map
          (fun s ->
            if s.Obs.Trace.kind = Obs.Trace.Net_hop && not s.Obs.Trace.is_instant
            then Some (s.Obs.Trace.site, s.Obs.Trace.end_ts)
            else None)
          spans
      in
      check bool (name ^ ": one hop span per delivery") true
        (List.sort compare deliveries = List.sort compare hops);
      let instants cause =
        List.length
          (List.filter
             (fun s -> s.Obs.Trace.is_instant && s.Obs.Trace.name = cause)
             spans)
      in
      List.iter
        (fun cause ->
          check int
            (name ^ ": one drop instant per " ^ cause ^ " drop")
            (List.assoc cause plain.counters)
            (instants ("net.drop." ^ cause)))
        [ "crash"; "partition"; "loss" ])
    cases

(* ------------------------------------------------------------------ *)
(* Truetime                                                            *)
(* ------------------------------------------------------------------ *)

let test_truetime_interval () =
  let e = Sim.Engine.create () in
  let tt = Sim.Truetime.create e ~epsilon_us:10_000 in
  Sim.Engine.schedule e ~after:50_000 (fun () ->
      let iv = Sim.Truetime.now tt in
      check int "earliest" 40_000 iv.Sim.Truetime.earliest;
      check int "latest" 60_000 iv.Sim.Truetime.latest);
  Sim.Engine.run e

let test_truetime_after () =
  let e = Sim.Engine.create () in
  let tt = Sim.Truetime.create e ~epsilon_us:10_000 in
  Sim.Engine.schedule e ~after:50_000 (fun () ->
      check bool "39999 passed" true (Sim.Truetime.after tt 39_999);
      check bool "40000 not yet definitely past" false (Sim.Truetime.after tt 40_000));
  Sim.Engine.run e

let test_truetime_zero_epsilon () =
  let e = Sim.Engine.create () in
  let tt = Sim.Truetime.create e ~epsilon_us:0 in
  Sim.Engine.schedule e ~after:123 (fun () ->
      let iv = Sim.Truetime.now tt in
      check int "pointlike earliest" 123 iv.Sim.Truetime.earliest;
      check int "pointlike latest" 123 iv.Sim.Truetime.latest);
  Sim.Engine.run e

(* ------------------------------------------------------------------ *)
(* Station                                                             *)
(* ------------------------------------------------------------------ *)

let test_station_queueing () =
  let e = Sim.Engine.create () in
  let st = Sim.Station.create e ~service_time_us:10 in
  let finish = Array.make 3 (-1) in
  for i = 0 to 2 do
    Sim.Station.submit ~cost:(Sim.Station.service_time_us st) st (fun () -> finish.(i) <- Sim.Engine.now e)
  done;
  Sim.Engine.run e;
  check (Alcotest.array int) "serialized" [| 10; 20; 30 |] finish;
  check int "busy time" 30 (Sim.Station.busy_us st);
  check int "jobs" 3 (Sim.Station.jobs st)

let test_station_idle_gap () =
  let e = Sim.Engine.create () in
  let st = Sim.Station.create e ~service_time_us:10 in
  let t2 = ref (-1) in
  Sim.Station.submit ~cost:(Sim.Station.service_time_us st) st (fun () -> ());
  Sim.Engine.schedule e ~after:100 (fun () ->
      Sim.Station.submit ~cost:(Sim.Station.service_time_us st) st (fun () -> t2 := Sim.Engine.now e));
  Sim.Engine.run e;
  check int "idle station starts immediately" 110 !t2

let test_station_zero_cost () =
  let e = Sim.Engine.create () in
  let st = Sim.Station.create e ~service_time_us:0 in
  let ran = ref false in
  Sim.Station.submit ~cost:(Sim.Station.service_time_us st) st (fun () -> ran := true);
  check bool "runs synchronously" true !ran

(* ------------------------------------------------------------------ *)
(* Fiber                                                               *)
(* ------------------------------------------------------------------ *)

let test_fiber_sequencing () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Fiber.spawn (fun () ->
      log := "a" :: !log;
      Sim.Fiber.sleep e 100;
      log := "b" :: !log;
      Sim.Fiber.sleep e 100;
      log := "c" :: !log);
  check (Alcotest.list Alcotest.string) "ran to first suspension" [ "a" ]
    (List.rev !log);
  Sim.Engine.run e;
  check (Alcotest.list Alcotest.string) "sequenced" [ "a"; "b"; "c" ] (List.rev !log);
  check int "time advanced" 200 (Sim.Engine.now e)

let test_fiber_await_value () =
  let e = Sim.Engine.create () in
  let got = ref 0 in
  Sim.Fiber.spawn (fun () ->
      let v =
        Sim.Fiber.await (fun k -> Sim.Engine.schedule e ~after:50 (fun () -> k 42))
      in
      got := v);
  Sim.Engine.run e;
  check int "value delivered" 42 !got

let test_fiber_interleaving () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let fiber name delay =
    Sim.Fiber.spawn (fun () ->
        Sim.Fiber.sleep e delay;
        log := name :: !log;
        Sim.Fiber.sleep e delay;
        log := name :: !log)
  in
  fiber "slow" 30;
  fiber "fast" 10;
  Sim.Engine.run e;
  check (Alcotest.list Alcotest.string) "interleaved by time"
    [ "fast"; "fast"; "slow"; "slow" ] (List.rev !log)

let test_fiber_double_resume_rejected () =
  let e = Sim.Engine.create () in
  let raised = ref false in
  Sim.Fiber.spawn (fun () ->
      ignore
        (Sim.Fiber.await (fun k ->
             Sim.Engine.schedule e ~after:1 (fun () -> k 1);
             Sim.Engine.schedule e ~after:2 (fun () ->
                 match k 2 with
                 | () -> ()
                 | exception Invalid_argument _ -> raised := true))));
  Sim.Engine.run e;
  check bool "second resume rejected" true !raised

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_recorder_percentiles () =
  let r = Stats.Recorder.create () in
  for i = 1 to 100 do
    Stats.Recorder.add r (i * 1000)
  done;
  check bool "p50" true (abs_float (Stats.Recorder.percentile r 50.0 -. 50_500.0) < 1.0);
  check bool "p0 = min" true (Stats.Recorder.percentile r 0.0 = 1000.0);
  check bool "p100 = max" true (Stats.Recorder.percentile r 100.0 = 100_000.0);
  check int "min" 1000 (Stats.Recorder.min r);
  check int "max" 100_000 (Stats.Recorder.max r);
  check bool "mean" true (abs_float (Stats.Recorder.mean r -. 50_500.0) < 1.0)

let test_recorder_single () =
  let r = Stats.Recorder.create () in
  Stats.Recorder.add r 7;
  check bool "all percentiles = sample" true
    (List.for_all
       (fun p -> Stats.Recorder.percentile r p = 7.0)
       [ 0.0; 50.0; 99.9; 100.0 ])

let test_recorder_empty () =
  let r = Stats.Recorder.create () in
  check bool "empty" true (Stats.Recorder.is_empty r);
  Alcotest.check_raises "percentile raises"
    (Invalid_argument "Recorder.percentile: empty") (fun () ->
      ignore (Stats.Recorder.percentile r 50.0))

let test_recorder_unsorted_inserts () =
  let r = Stats.Recorder.create () in
  List.iter (Stats.Recorder.add r) [ 5; 1; 9; 3; 7 ];
  check (Alcotest.array int) "sorted view" [| 1; 3; 5; 7; 9 |]
    (Stats.Recorder.to_sorted_array r);
  (* Interleave queries and inserts: sorting must be re-done. *)
  ignore (Stats.Recorder.percentile r 50.0);
  Stats.Recorder.add r 0;
  check int "new min visible" 0 (Stats.Recorder.min r)

let test_recorder_merge () =
  let a = Stats.Recorder.create () and b = Stats.Recorder.create () in
  List.iter (Stats.Recorder.add a) [ 1; 2; 3 ];
  List.iter (Stats.Recorder.add b) [ 4; 5 ];
  let m = Stats.Recorder.merge a b in
  check int "merged count" 5 (Stats.Recorder.count m);
  check int "merged max" 5 (Stats.Recorder.max m)

let prop_recorder_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone in p" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 0 10_000))
    (fun xs ->
      let r = Stats.Recorder.create () in
      List.iter (Stats.Recorder.add r) xs;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ] in
      let vs = List.map (Stats.Recorder.percentile r) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | [ _ ] | [] -> true
      in
      mono vs)

let prop_recorder_percentile_bounded =
  QCheck.Test.make ~name:"percentile within [min,max]" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (int_range 0 10_000)) (float_range 0.0 100.0))
    (fun (xs, p) ->
      let r = Stats.Recorder.create () in
      List.iter (Stats.Recorder.add r) xs;
      let v = Stats.Recorder.percentile r p in
      v >= float_of_int (Stats.Recorder.min r)
      && v <= float_of_int (Stats.Recorder.max r))

let test_summary_helpers () =
  check bool "improvement" true
    (abs_float (Stats.Summary.improvement ~baseline:200.0 ~variant:100.0 -. 50.0) < 1e-9);
  check bool "throughput" true
    (abs_float (Stats.Summary.throughput ~count:500 ~duration_us:1_000_000 -. 500.0) < 1e-9)

let test_engine_cancel () =
  (* Cancels from inside actions and from outside: a queued event never
     runs, never moves the clock and never counts as executed; cancelling
     a handle whose event has run, was cancelled, or whose slot a later
     push reuses, does nothing. *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note name () = log := (name, Sim.Engine.now e) :: !log in
  let x = ref (-1) in
  let y = Sim.Engine.schedule_cancellable e ~after:20 (note "y") in
  x :=
    Sim.Engine.schedule_cancellable e ~after:10 (fun () ->
        note "x" ();
        Sim.Engine.cancel e y;
        Sim.Engine.cancel e !x);
  let z =
    Sim.Engine.schedule_cancellable e ~after:15 (fun () ->
        note "z" ();
        Sim.Engine.cancel e !x)
  in
  check int "three pending" 3 (Sim.Engine.pending e);
  Sim.Engine.run e;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "y never ran"
    [ ("x", 10); ("z", 15) ]
    (List.rev !log);
  check int "clock at the last event run" 15 (Sim.Engine.now e);
  check int "executed" 2 (Sim.Engine.executed e);
  check int "none pending" 0 (Sim.Engine.pending e);
  (* [w] takes one of the three freed slots; every stale handle misses it. *)
  Sim.Engine.schedule e ~after:5 (note "w");
  List.iter (Sim.Engine.cancel e) [ !x; y; z; -1; -2 ];
  check int "w still pending" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  check int "w ran" 3 (Sim.Engine.executed e);
  check int "clock at w" 20 (Sim.Engine.now e)

let test_engine_compaction_mid_step () =
  (* One action cancels three quarters of the queue: after the 101st
     cancel tombstones outnumber live entries and the heap is compacted
     inside [step]; 49 more cancels leave tombstones in the compacted
     heap. Pushes after it reuse the freed slots, and everything left runs
     once, in (time, seq) order. *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  let n = 200 in
  let time i = 100 + (i * 37 mod 101) in
  let handles =
    Array.init n (fun i ->
        Sim.Engine.schedule_cancellable e ~after:(time i) (fun () ->
            log := i :: !log))
  in
  Sim.Engine.schedule e ~after:1 (fun () ->
      Array.iteri (fun i h -> if i mod 4 <> 0 then Sim.Engine.cancel e h) handles;
      check int "survivors pending" (n / 4) (Sim.Engine.pending e);
      for j = 0 to 9 do
        Sim.Engine.schedule e ~after:(50 + j) (fun () -> log := (n + j) :: !log)
      done);
  check bool "the canceller runs" true (Sim.Engine.step e);
  check int "pending after the step" ((n / 4) + 10) (Sim.Engine.pending e);
  Sim.Engine.run e;
  let survivors =
    List.filter (fun i -> i mod 4 = 0) (List.init n Fun.id)
    |> List.stable_sort (fun a b -> compare (time a) (time b))
  in
  check (Alcotest.list int) "run order"
    (List.init 10 (fun j -> n + j) @ survivors)
    (List.rev !log);
  check int "executed" (1 + 10 + (n / 4)) (Sim.Engine.executed e);
  check int "clock at the last survivor"
    (List.fold_left (fun m i -> max m (time i)) 0 survivors)
    (Sim.Engine.now e)

let test_engine_until_tombstone_root () =
  (* A cancelled event at the root is dropped before [run ~until] compares
     times, so a live event past [until] stays queued. *)
  let e = Sim.Engine.create () in
  let hits = ref [] in
  let a = Sim.Engine.schedule_cancellable e ~after:10 (fun () -> hits := 10 :: !hits) in
  Sim.Engine.schedule e ~after:20 (fun () -> hits := 20 :: !hits);
  Sim.Engine.cancel e a;
  check int "one pending" 1 (Sim.Engine.pending e);
  Sim.Engine.run ~until:15 e;
  check (Alcotest.list int) "nothing ran" [] !hits;
  check int "clock stopped at until" 15 (Sim.Engine.now e);
  check int "still pending" 1 (Sim.Engine.pending e);
  check int "none executed" 0 (Sim.Engine.executed e);
  Sim.Engine.run e;
  check (Alcotest.list int) "the live event ran" [ 20 ] !hits;
  (* Only a cancelled event left: nothing runs and the clock stays. *)
  let b = Sim.Engine.schedule_cancellable e ~after:5 (fun () -> hits := 25 :: !hits) in
  Sim.Engine.cancel e b;
  check bool "step finds nothing" false (Sim.Engine.step e);
  Sim.Engine.run e;
  check int "clock unmoved" 20 (Sim.Engine.now e);
  check int "executed" 1 (Sim.Engine.executed e)

let[@inline never] schedule_cancellable_payload e w i ~after =
  let payload = Bytes.create 16 in
  Weak.set w i (Some payload);
  Sim.Engine.schedule_cancellable e ~after (fun () ->
      ignore (Sys.opaque_identity payload))

let test_engine_drops_cancelled_closures () =
  (* A cancelled event's closure is released at once, though its entry
     stays in the heap until it reaches the root. *)
  let n = 40 in
  let e = Sim.Engine.create () in
  let w = Weak.create n in
  let handles =
    Array.init n (fun i -> schedule_cancellable_payload e w i ~after:(i + 1))
  in
  Array.iteri (fun i h -> if i mod 3 = 0 then Sim.Engine.cancel e h) handles;
  Gc.full_major ();
  for i = 0 to n - 1 do
    check bool
      (Printf.sprintf "payload %d reachable iff not cancelled" i)
      (i mod 3 <> 0) (Weak.check w i)
  done;
  check int "the rest still pending" (n - 14) (Sim.Engine.pending e)

let test_engine_cancel_allocation_free () =
  (* Once the arrays have grown, cancellable pushes, cancels (with the
     compactions they trigger) and pops allocate nothing. *)
  let e = Sim.Engine.create () in
  let action () = () in
  for i = 1 to 5_000 do
    ignore (Sim.Engine.schedule_cancellable e ~after:i action)
  done;
  Sim.Engine.run e;
  let before = Gc.minor_words () in
  for i = 1 to 5_000 do
    let h = Sim.Engine.schedule_cancellable e ~after:(i mod 97) action in
    if i mod 4 <> 0 then Sim.Engine.cancel e h
  done;
  Sim.Engine.run e;
  let words = Gc.minor_words () -. before in
  check bool (Printf.sprintf "%.0f minor words for 10k queue ops" words) true
    (words < 100.0);
  (* With no pops at all, compaction still frees the tombstones: pushing
     and cancelling 20k events never grows the queue's arrays. *)
  let before = Gc.allocated_bytes () in
  for i = 1 to 20_000 do
    Sim.Engine.cancel e (Sim.Engine.schedule_cancellable e ~after:i action)
  done;
  let bytes = Gc.allocated_bytes () -. before in
  check bool (Printf.sprintf "%.0f bytes for 20k push-cancel pairs" bytes) true
    (bytes < 1024.0);
  check int "nothing pending" 0 (Sim.Engine.pending e)

let qt = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "time ordering" `Quick test_engine_ordering;
        Alcotest.test_case "FIFO at same time" `Quick test_engine_fifo_same_time;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "run ~until" `Quick test_engine_until;
        Alcotest.test_case "past schedule clamps" `Quick test_engine_past_schedule;
        Alcotest.test_case "time conversions" `Quick test_time_conversions;
        qt prop_engine_stable_order;
        qt prop_engine_slot_reuse;
        Alcotest.test_case "empty queue" `Quick test_engine_empty;
        qt prop_engine_reference_order;
        Alcotest.test_case "partial child groups" `Quick
          test_engine_partial_child_groups;
        Alcotest.test_case "slot reuse across growth" `Quick
          test_engine_slot_reuse_across_growth;
        Alcotest.test_case "profile counts per kind" `Quick
          test_engine_profile_counts;
        Alcotest.test_case "popped closures unreachable" `Quick
          test_engine_drops_popped_closures;
        Alcotest.test_case "push and pop allocate nothing" `Quick
          test_engine_allocation_free;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "compaction mid-step" `Quick
          test_engine_compaction_mid_step;
        Alcotest.test_case "run ~until with a tombstone at the root" `Quick
          test_engine_until_tombstone_root;
        Alcotest.test_case "cancelled closures unreachable" `Quick
          test_engine_drops_cancelled_closures;
        Alcotest.test_case "cancel allocates nothing" `Quick
          test_engine_cancel_allocation_free;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        Alcotest.test_case "bernoulli bias" `Slow test_rng_bool_bias;
        qt prop_rng_int_range;
        qt prop_rng_exponential_positive;
        Alcotest.test_case "draws match Random.State" `Quick test_rng_matches_stdlib;
        Alcotest.test_case "bool allocates nothing" `Quick
          test_rng_bool_allocation_free;
      ] );
    ( "sim.int_table",
      [
        qt prop_int_table_model;
        Alcotest.test_case "removal across a wrapping run" `Quick
          test_int_table_wrapping_run;
        Alcotest.test_case "lookups and updates allocate nothing" `Quick
          test_int_table_allocation_free;
      ] );
    ( "sim.net",
      [
        Alcotest.test_case "one-way delay" `Quick test_net_delay;
        Alcotest.test_case "local delay" `Quick test_net_local_delay;
        Alcotest.test_case "triangular matrix" `Quick test_net_triangular_matrix;
        Alcotest.test_case "jitter bounds" `Quick test_net_jitter_bounds;
        Alcotest.test_case "message accounting" `Quick test_net_message_accounting;
        Alcotest.test_case "minor words per message" `Quick test_net_allocation;
        Alcotest.test_case "traced matches untraced under faults" `Quick
          test_net_traced_matches_untraced;
      ] );
    ( "sim.truetime",
      [
        Alcotest.test_case "interval" `Quick test_truetime_interval;
        Alcotest.test_case "after (commit wait)" `Quick test_truetime_after;
        Alcotest.test_case "zero epsilon" `Quick test_truetime_zero_epsilon;
      ] );
    ( "sim.station",
      [
        Alcotest.test_case "queueing" `Quick test_station_queueing;
        Alcotest.test_case "idle gap" `Quick test_station_idle_gap;
        Alcotest.test_case "zero cost" `Quick test_station_zero_cost;
      ] );
    ( "sim.fiber",
      [
        Alcotest.test_case "sequencing" `Quick test_fiber_sequencing;
        Alcotest.test_case "await value" `Quick test_fiber_await_value;
        Alcotest.test_case "interleaving" `Quick test_fiber_interleaving;
        Alcotest.test_case "double resume" `Quick test_fiber_double_resume_rejected;
      ] );
    ( "stats",
      [
        Alcotest.test_case "percentiles" `Quick test_recorder_percentiles;
        Alcotest.test_case "single sample" `Quick test_recorder_single;
        Alcotest.test_case "empty recorder" `Quick test_recorder_empty;
        Alcotest.test_case "interleaved insert/query" `Quick test_recorder_unsorted_inserts;
        Alcotest.test_case "merge" `Quick test_recorder_merge;
        Alcotest.test_case "summary helpers" `Quick test_summary_helpers;
        qt prop_recorder_percentile_monotone;
        qt prop_recorder_percentile_bounded;
      ] );
  ]
