type prof_cell = { mutable p_events : int; mutable p_wall : float }

(* The event queue is an implicit 4-ary min-heap over (time, prio, seq),
   stored as four parallel int arrays rather than an array of boxed event
   records. This is the simulator's hottest path — every message delivery
   is one push and one pop — so the heap moves only unboxed ints: each
   entry's fourth int is a slot in a pool that holds the event's closure
   and kind (two arrays indexed by slot, plus a stack of free slots). A
   push writes the closure and kind once, at a free slot, and a pop takes
   the closure from the root's slot and returns the slot to the stack;
   neither sift ever writes a boxed array, so no level pays a
   [caml_modify]. Four children per node halve the heap's depth against a
   binary heap, and both sifts move a hole rather than swapping: the moving
   entry waits in locals, each level costs one read and one write per
   array, and the entry is written once, at its final place.

   Slots in use always equal [len], so the free stack holds exactly
   [capacity - len] slots and is empty exactly when the heap is full: then
   [grow] doubles the heap and the pool together and stacks the new slots.
   A popped slot's closure is reset to [no_op], so the queue never keeps a
   dead closure (or its environment) alive. Kinds are string literals; a
   slot's kind is written only when it differs physically from the one
   already there, is not cleared on pop, and is read only by profiling.

   Pop order is fixed by the key alone: seq is unique, so (time, prio, seq)
   is a strict total order and every correct priority queue pops the same
   sequence. Which slot an event lands in never affects the order.

   Cancellation. [schedule_cancellable] returns the event's handle, its seq
   and slot packed into one immediate int, and records the seq in
   [slot_seq] (written once per push). [cancel] acts only if the slot
   still holds that seq and a closure other than [no_op]: a slot whose
   event has run, or was cancelled, holds [no_op] until a later push
   reuses it, and the reuse writes a new seq. A cancelled entry releases
   its closure at once but stays in the heap as a tombstone, its slot still
   in use; [dead] counts them. A tombstone that reaches the root is
   dropped without running anything, moving neither the clock nor
   [n_executed]. When tombstones outnumber live entries, [compact] frees
   them and re-heapifies the rest in place (Floyd); since the key alone
   fixes the pop order, neither tombstones nor compaction can move a
   schedule. [pending] and the profiler's depth samples count live
   entries only. *)
type t = {
  mutable clock : int;
  mutable next_seq : int;
  mutable n_executed : int;
  mutable ev_time : int array;
  mutable ev_prio : int array;
  mutable ev_seq : int array;
  mutable ev_slot : int array;
  mutable len : int;
  (* The slot pool: [slot_action.(s)] and [slot_kind.(s)] belong to the
     queued event whose [ev_slot] is [s]. [free.(0 .. capacity - len - 1)]
     is the stack of unused slots, its top at the highest index. *)
  mutable slot_action : (unit -> unit) array;
  mutable slot_kind : string array;
  mutable slot_seq : int array;
  mutable free : int array;
  mutable dead : int;  (* tombstones among the [len] heap entries *)
  (* Tie-break perturbation hook for schedule exploration: when set, each
     scheduled event asks the callback for a priority keyed on its [kind];
     ordering becomes (time, prio, seq). When unset every event gets
     priority 0 and (time, 0, seq) degenerates to the historical
     (time, seq) FIFO order, so seeded runs without a hook installed
     execute byte-identical schedules. *)
  mutable tie_perturb : (string -> int) option;
  (* Profiling is host-side observation only: it reads [Sys.time] and the
     queue size but never touches simulated time or event order, so
     enabling it cannot perturb a seeded run. *)
  mutable profiling : bool;
  mutable sample_every : int;
  profile : (string, prof_cell) Hashtbl.t;
  depths : Stats.Recorder.t;
}

let no_op () = ()

(* A handle is [seq lsl slot_bits lor slot]. Slots stay below 2^28 (a
   queue that long would need tens of gigabytes), and seqs below 2^34 give
   non-negative handles; past that a handle names no event (see [cancel]). *)
let slot_bits = 28

let slot_mask = (1 lsl slot_bits) - 1

type handle = int

(* Free slots [lo .. hi - 1], stacked so that the lowest is taken first. *)
let stack_slots free ~lo ~hi =
  for i = 0 to hi - lo - 1 do
    free.(i) <- hi - 1 - i
  done

let create () =
  let free = Array.make 16 0 in
  stack_slots free ~lo:0 ~hi:16;
  {
    clock = 0;
    next_seq = 0;
    n_executed = 0;
    ev_time = Array.make 16 0;
    ev_prio = Array.make 16 0;
    ev_seq = Array.make 16 0;
    ev_slot = Array.make 16 0;
    len = 0;
    slot_action = Array.make 16 no_op;
    slot_kind = Array.make 16 "";
    slot_seq = Array.make 16 0;
    free;
    dead = 0;
    tie_perturb = None;
    profiling = false;
    sample_every = 1024;
    profile = Hashtbl.create 16;
    depths = Stats.Recorder.create ();
  }

let now t = t.clock

(* Called only when the free stack is empty, that is, when every slot and
   every heap place is in use. *)
let grow t =
  let cap = t.len in
  let ncap = cap * 2 in
  if ncap > slot_mask + 1 then failwith "Engine: event queue full";
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.ev_time <- extend t.ev_time 0;
  t.ev_prio <- extend t.ev_prio 0;
  t.ev_seq <- extend t.ev_seq 0;
  t.ev_slot <- extend t.ev_slot 0;
  t.slot_action <- extend t.slot_action no_op;
  t.slot_kind <- extend t.slot_kind "";
  t.slot_seq <- extend t.slot_seq 0;
  let free = Array.make ncap 0 in
  stack_slots free ~lo:cap ~hi:ncap;
  t.free <- free

(* (time, prio, seq) lexicographic on unboxed keys — prio is 0 for every
   event unless a tie-break perturbation hook is installed, in which case it
   reorders same-instant events; seq ties break FIFO among same-(time, prio)
   events, which is what makes runs reproducible. *)
let[@inline] before (t1 : int) (p1 : int) (s1 : int) t2 p2 s2 =
  t1 < t2 || (t1 = t2 && (p1 < p2 || (p1 = p2 && s1 < s2)))

(* Push: the closure, kind and seq go to a free slot; then the new entry is
   held in locals while a hole climbs from the first free heap place past
   every parent it precedes; each parent moves down one level, and the
   entry is written once, at its final place. Returns the handle. *)
let[@inline] push kind t ~at action =
  let time = if at < t.clock then t.clock else at in
  if t.len = Array.length t.free then grow t;
  let slot = t.free.(Array.length t.free - t.len - 1) in
  t.slot_action.(slot) <- action;
  if t.slot_kind.(slot) != kind then t.slot_kind.(slot) <- kind;
  let prio = match t.tie_perturb with None -> 0 | Some f -> f kind in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.slot_seq.(slot) <- seq;
  let times = t.ev_time and prios = t.ev_prio and seqs = t.ev_seq in
  let slots = t.ev_slot in
  let hole = ref t.len in
  t.len <- t.len + 1;
  let climbing = ref true in
  while !climbing && !hole > 0 do
    let i = !hole in
    let p = (i - 1) lsr 2 in
    if before time prio seq times.(p) prios.(p) seqs.(p) then begin
      times.(i) <- times.(p);
      prios.(i) <- prios.(p);
      seqs.(i) <- seqs.(p);
      slots.(i) <- slots.(p);
      hole := p
    end
    else climbing := false
  done;
  let i = !hole in
  times.(i) <- time;
  prios.(i) <- prio;
  seqs.(i) <- seq;
  slots.(i) <- slot;
  (seq lsl slot_bits) lor slot

let schedule_at ?(kind = "other") t ~at action = ignore (push kind t ~at action)

let schedule ?(kind = "other") t ~after action =
  let after = if after < 0 then 0 else after in
  ignore (push kind t ~at:(t.clock + after) action)

let schedule_cancellable ?(kind = "other") t ~after action =
  let after = if after < 0 then 0 else after in
  push kind t ~at:(t.clock + after) action

let set_tie_perturb t f = t.tie_perturb <- f

let enable_profiling ?(sample_queue_every = 1024) t =
  t.profiling <- true;
  t.sample_every <- max 1 sample_queue_every

let profiling_enabled t = t.profiling

let prof_cell t kind =
  match Hashtbl.find_opt t.profile kind with
  | Some c -> c
  | None ->
    let c = { p_events = 0; p_wall = 0.0 } in
    Hashtbl.add t.profile kind c;
    c

let profile t =
  Hashtbl.fold (fun k c acc -> (k, c.p_events, c.p_wall) :: acc) t.profile []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let queue_depths t = t.depths

(* The sift-down both [remove_root] and [compact] use: the entry (time,
   prio, seq, slot) is held in locals while the hole at [hole] sinks
   through the smallest child of each group of four that precedes it, in a
   heap of [len] entries; the entry is written once, where the hole stops. *)
let[@inline] sift_down t hole time prio seq slot len =
  let times = t.ev_time and prios = t.ev_prio and seqs = t.ev_seq in
  let slots = t.ev_slot in
  let hole = ref hole and sinking = ref true in
  while !sinking do
    let first = (4 * !hole) + 1 in
    if first >= len then sinking := false
    else begin
      (* The smallest of the hole's children; the last parent's group
         may hold fewer than four. *)
      let stop = if first + 3 < len then first + 3 else len - 1 in
      let c = ref first in
      let ct = ref times.(first)
      and cp = ref prios.(first)
      and cs = ref seqs.(first) in
      for j = first + 1 to stop do
        let jt = times.(j) and jp = prios.(j) and js = seqs.(j) in
        if before jt jp js !ct !cp !cs then begin
          c := j;
          ct := jt;
          cp := jp;
          cs := js
        end
      done;
      if before !ct !cp !cs time prio seq then begin
        let c = !c and i = !hole in
        times.(i) <- !ct;
        prios.(i) <- !cp;
        seqs.(i) <- !cs;
        slots.(i) <- slots.(c);
        hole := c
      end
      else sinking := false
    end
  done;
  let i = !hole in
  times.(i) <- time;
  prios.(i) <- prio;
  seqs.(i) <- seq;
  slots.(i) <- slot

(* Remove the root, whose slot the caller has emptied and which goes back
   on the free stack. The last entry leaves its place and sifts down from
   the root's. *)
let remove_root t root_slot =
  let last = t.len - 1 in
  t.len <- last;
  t.free.(Array.length t.free - last - 1) <- root_slot;
  if last > 0 then
    sift_down t 0 t.ev_time.(last) t.ev_prio.(last) t.ev_seq.(last)
      t.ev_slot.(last) last

(* A slot holds [no_op] exactly when it is free or its entry is a
   tombstone. *)
let tombstone t i = t.slot_action.(t.ev_slot.(i)) == no_op

let[@inline] drop_tombstones t =
  while t.dead > 0 && t.len > 0 && tombstone t 0 do
    t.dead <- t.dead - 1;
    remove_root t t.ev_slot.(0)
  done

(* Free every tombstone's slot and close the gaps, keeping the live entries
   in heap order; then restore the heap property bottom-up, sifting down
   each parent from the last one to the root. *)
let compact t =
  let times = t.ev_time and prios = t.ev_prio and seqs = t.ev_seq in
  let slots = t.ev_slot in
  let top = ref (Array.length t.free - t.len) and n = ref 0 in
  for i = 0 to t.len - 1 do
    if tombstone t i then begin
      t.free.(!top) <- slots.(i);
      incr top
    end
    else begin
      let j = !n in
      times.(j) <- times.(i);
      prios.(j) <- prios.(i);
      seqs.(j) <- seqs.(i);
      slots.(j) <- slots.(i);
      n := j + 1
    end
  done;
  let len = !n in
  t.len <- len;
  t.dead <- 0;
  for i = ((len - 2) / 4) downto 0 do
    sift_down t i times.(i) prios.(i) seqs.(i) slots.(i) len
  done

let cancel t h =
  let slot = h land slot_mask in
  if
    h >= 0
    && slot < Array.length t.slot_seq
    && t.slot_seq.(slot) = h lsr slot_bits
    && t.slot_action.(slot) != no_op
  then begin
    t.slot_action.(slot) <- no_op;
    t.dead <- t.dead + 1;
    if t.dead > t.len - t.dead then compact t
  end

(* Run the root, which must be live. *)
let fire t =
  let time = t.ev_time.(0) and slot = t.ev_slot.(0) in
  let action = t.slot_action.(slot) in
  t.slot_action.(slot) <- no_op;
  remove_root t slot;
  t.clock <- time;
  t.n_executed <- t.n_executed + 1;
  if t.profiling then begin
    (* Read before the action runs: a push inside it may reuse the slot. *)
    let kind = t.slot_kind.(slot) in
    if t.n_executed mod t.sample_every = 0 then
      Stats.Recorder.add t.depths (t.len - t.dead);
    let t0 = Sys.time () in
    action ();
    let cell = prof_cell t kind in
    cell.p_events <- cell.p_events + 1;
    cell.p_wall <- cell.p_wall +. (Sys.time () -. t0)
  end
  else action ()

let step t =
  drop_tombstones t;
  if t.len = 0 then false
  else begin
    fire t;
    true
  end

let run ?until ?max_events t =
  let stop_time = match until with None -> max_int | Some u -> u in
  let budget = ref (match max_events with None -> max_int | Some m -> m) in
  let continue = ref true in
  while !continue && !budget > 0 do
    drop_tombstones t;
    if t.len = 0 then continue := false
    else if t.ev_time.(0) > stop_time then begin
      t.clock <- stop_time;
      continue := false
    end
    else begin
      fire t;
      decr budget
    end
  done

let pending t = t.len - t.dead

let executed t = t.n_executed

let us n = n

let ms f = int_of_float (f *. 1_000.0 +. 0.5)

let sec f = int_of_float (f *. 1_000_000.0 +. 0.5)

let to_ms n = float_of_int n /. 1_000.0

let to_sec n = float_of_int n /. 1_000_000.0
