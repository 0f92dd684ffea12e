type site = int

type drop_cause = Crash | Partition | Loss

(* Per-directed-link fault state. All fields default to the healthy value;
   the transmit step only draws random numbers for a fault that is armed,
   so a fault-free run's RNG stream does not depend on the fault model. *)
type link = {
  mutable blocked : bool;
  mutable loss : float;
  mutable dup : float;
  mutable extra_us : int;
  mutable reorder : float;
  mutable reorder_max_us : int;
  (* Batching buffer — only touched when a batching policy is installed, so
     an unbatched run never reads or writes these fields on the send path. *)
  mutable q : (int -> unit) list;  (* handlers, newest first *)
  mutable q_n : int;
  mutable q_bytes : int;
  mutable q_armed : bool;
  mutable q_gen : int;  (* invalidates stale deadline timers across flushes *)
  mutable inflight : int;  (* envelopes scheduled but not yet delivered *)
}

type policy = {
  batch_us : int;  (** flush deadline: first enqueue arms a timer this far out *)
  batch_max : int;  (** flush when this many messages are buffered *)
  adaptive : bool;
      (** flush immediately while the link has no envelope in flight, and
          again as soon as an in-flight envelope lands *)
}

type flush_cause = Flush_deadline | Flush_size | Flush_idle

(* Fixed per-envelope framing cost; an envelope's wire size is this header
   plus the sum of its members' bytes. Plain [send] (and [post] with batching
   off) charges exactly the message's bytes, no header — a lone message is
   its own frame. *)
let envelope_header_bytes = 32

type t = {
  engine : Engine.t;
  rng : Rng.t;
  one_way_us : int array array;
  rtt : float array array;
  jitter : float;
  down : bool array;
  links : link array array;
  mutable n_messages : int;
  mutable n_bytes : int;
  mutable n_dropped_crash : int;
  mutable n_dropped_partition : int;
  mutable n_dropped_loss : int;
  mutable n_duplicated : int;
  mutable n_delayed : int;
  (* Tracing sink, [disabled] by default. Hop names are precomputed per
     link at [set_tracer] so traced sends don't build strings per message. *)
  mutable tracer : Obs.Trace.t;
  mutable hop_names : string array array;
  (* Batching policy + accounting. [None] (the default) makes [post]
     byte-identical to [send]. *)
  mutable policy : policy option;
  mutable b_envelopes : int;
  mutable b_members : int;
  mutable b_flush_deadline : int;
  mutable b_flush_size : int;
  mutable b_flush_idle : int;
  mutable b_max_members : int;
  b_sizes : Stats.Recorder.t;  (* members per flushed envelope *)
  (* Delay perturbation hook for schedule exploration: when set, every
     delivery delay sample adds the hook's (non-negative) extra
     microseconds. The hook draws from its own state, never from [rng],
     so installing it does not shift the network's RNG stream; [None]
     (the default) is byte-identical to the unhooked network. *)
  mutable delay_perturb : (unit -> int) option;
}

let fresh_link () =
  {
    blocked = false;
    loss = 0.0;
    dup = 0.0;
    extra_us = 0;
    reorder = 0.0;
    reorder_max_us = 0;
    q = [];
    q_n = 0;
    q_bytes = 0;
    q_armed = false;
    q_gen = 0;
    inflight = 0;
  }

let create engine ~rng ~rtt_ms ?(jitter = 0.02) () =
  let n = Array.length rtt_ms in
  let rtt = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      (* Accept triangular input: take whichever entry is non-zero. *)
      let v = if rtt_ms.(i).(j) > 0.0 then rtt_ms.(i).(j) else rtt_ms.(j).(i) in
      rtt.(i).(j) <- v
    done
  done;
  let one_way_us =
    Array.init n (fun i -> Array.init n (fun j -> Engine.ms (rtt.(i).(j) /. 2.0)))
  in
  {
    engine;
    rng;
    one_way_us;
    rtt;
    jitter;
    down = Array.make n false;
    links = Array.init n (fun _ -> Array.init n (fun _ -> fresh_link ()));
    n_messages = 0;
    n_bytes = 0;
    n_dropped_crash = 0;
    n_dropped_partition = 0;
    n_dropped_loss = 0;
    n_duplicated = 0;
    n_delayed = 0;
    tracer = Obs.Trace.disabled;
    hop_names = [||];
    policy = None;
    b_envelopes = 0;
    b_members = 0;
    b_flush_deadline = 0;
    b_flush_size = 0;
    b_flush_idle = 0;
    b_max_members = 0;
    b_sizes = Stats.Recorder.create ();
    delay_perturb = None;
  }

let n_sites t = Array.length t.one_way_us

let engine t = t.engine

let base_one_way t ~src ~dst = t.one_way_us.(src).(dst)

(* The single per-link fault predicate every delivery consults. Causes are
   ordered crash > partition > loss so each dropped message is charged to
   exactly one counter. The loss draw happens only when the link can
   actually deliver — a crashed destination does not consume randomness. *)
let classify t ~src ~dst =
  if t.down.(src) || t.down.(dst) then Some Crash
  else
    let l = t.links.(src).(dst) in
    if l.blocked then Some Partition
    else if l.loss > 0.0 && Rng.bool t.rng l.loss then Some Loss
    else None

let count_drop t = function
  | Crash -> t.n_dropped_crash <- t.n_dropped_crash + 1
  | Partition -> t.n_dropped_partition <- t.n_dropped_partition + 1
  | Loss -> t.n_dropped_loss <- t.n_dropped_loss + 1

let sample_delay t ~src ~dst =
  let base = t.one_way_us.(src).(dst) in
  let d =
    if t.jitter <= 0.0 then base
    else
      let factor = 1.0 +. Rng.float t.rng t.jitter in
      int_of_float (float_of_int base *. factor)
  in
  let l = t.links.(src).(dst) in
  let injected =
    (if l.extra_us > 0 then l.extra_us else 0)
    + (if l.reorder > 0.0 && l.reorder_max_us > 0 && Rng.bool t.rng l.reorder
       then 1 + Rng.int t.rng l.reorder_max_us
       else 0)
  in
  if injected > 0 then t.n_delayed <- t.n_delayed + 1;
  let perturbed =
    match t.delay_perturb with
    | None -> 0
    | Some f ->
      let p = f () in
      if p > 0 then p else 0
  in
  d + injected + perturbed

let set_delay_perturb t f = t.delay_perturb <- f

let set_tracer t tracer =
  t.tracer <- tracer;
  if Obs.Trace.enabled tracer && Array.length t.hop_names = 0 then begin
    let n = n_sites t in
    t.hop_names <-
      Array.init n (fun i ->
          Array.init n (fun j ->
              "net " ^ string_of_int i ^ "->" ^ string_of_int j))
  end

let tracer t = t.tracer

let drop_name = function
  | Crash -> "net.drop.crash"
  | Partition -> "net.drop.partition"
  | Loss -> "net.drop.loss"

let set_batching t policy =
  (match policy with
  | Some p ->
    if p.batch_us <= 0 then invalid_arg "Net.set_batching: batch_us must be positive";
    if p.batch_max <= 0 then invalid_arg "Net.set_batching: batch_max must be positive"
  | None -> ());
  t.policy <- policy

let batching t = t.policy

let record_flush t l cause =
  l.q_gen <- l.q_gen + 1;
  l.q_armed <- false;
  t.b_envelopes <- t.b_envelopes + 1;
  t.b_members <- t.b_members + l.q_n;
  if l.q_n > t.b_max_members then t.b_max_members <- l.q_n;
  Stats.Recorder.add t.b_sizes l.q_n;
  match cause with
  | Flush_deadline -> t.b_flush_deadline <- t.b_flush_deadline + 1
  | Flush_size -> t.b_flush_size <- t.b_flush_size + 1
  | Flush_idle -> t.b_flush_idle <- t.b_flush_idle + 1

(* {2 Transmit}

   The one step every delivery takes (a plain [send], an unbatched [post]
   and a flushed envelope alike), so the fault model and its RNG order are
   written once: classify the link (only the loss draw is random), count
   the drop or charge the wire, sample the delay (jitter, reorder),
   schedule one arrival, then draw the duplicate, which samples its own
   delay. Tracing draws and schedules nothing: it adds a drop instant or
   runs the arrival under a [Net_hop] span, so traced and untraced runs
   schedule the same events at the same times.

   An envelope ([~envelope:true]) counts itself in flight on its link until
   it lands; landing, an adaptive one re-flushes what the link buffered
   meanwhile (a group-commit heartbeat), outside the hop span. [deliver] is
   a top-level function rather than a closure built per message, so an
   untraced lone message schedules its handler as is. *)

let rec transmit t ~src ~dst ~bytes ~envelope ~adaptive run =
  match classify t ~src ~dst with
  | Some cause ->
    count_drop t cause;
    if Obs.Trace.enabled t.tracer then
      Obs.Trace.instant ~site:dst t.tracer ~name:(drop_name cause)
        ~ts:(Engine.now t.engine)
  | None ->
    t.n_messages <- t.n_messages + 1;
    t.n_bytes <- t.n_bytes + bytes;
    deliver t ~src ~dst ~envelope ~adaptive run (sample_delay t ~src ~dst);
    let l = t.links.(src).(dst) in
    if l.dup > 0.0 && Rng.bool t.rng l.dup then begin
      t.n_duplicated <- t.n_duplicated + 1;
      deliver t ~src ~dst ~envelope ~adaptive run (sample_delay t ~src ~dst)
    end

and deliver t ~src ~dst ~envelope ~adaptive run delay =
  let tr = t.tracer in
  let hop =
    if not (Obs.Trace.enabled tr) then run
    else begin
      (* The hop is parented to the sender's ambient span and becomes the
         ambient parent of whatever the handlers do. *)
      let now = Engine.now t.engine in
      let sp =
        Obs.Trace.begin_span ~site:dst tr ~kind:Obs.Trace.Net_hop
          ~name:t.hop_names.(src).(dst) ~ts:now
      in
      Obs.Trace.end_span tr sp ~ts:(now + delay);
      fun () -> Obs.Trace.with_current tr sp run
    end
  in
  let action =
    if not envelope then hop
    else begin
      let l = t.links.(src).(dst) in
      l.inflight <- l.inflight + 1;
      fun () ->
        l.inflight <- l.inflight - 1;
        hop ();
        if adaptive && l.inflight = 0 && l.q_n > 0 then
          flush t ~src ~dst ~adaptive Flush_idle
    end
  in
  Engine.schedule ~kind:"net.deliver" t.engine ~after:delay action

and flush t ~src ~dst ~adaptive cause =
  let l = t.links.(src).(dst) in
  if l.q_n > 0 then begin
    record_flush t l cause;
    let members = List.rev l.q in
    let bytes = envelope_header_bytes + l.q_bytes in
    l.q <- [];
    l.q_n <- 0;
    l.q_bytes <- 0;
    transmit t ~src ~dst ~bytes ~envelope:true ~adaptive (fun () ->
        List.iteri (fun i h -> h i) members)
  end

let send ?(bytes = 64) t ~src ~dst handler =
  transmit t ~src ~dst ~bytes ~envelope:false ~adaptive:false handler

let post ?(bytes = 64) t ~src ~dst handler =
  match t.policy with
  | None -> send ~bytes t ~src ~dst (fun () -> handler 0)
  | Some p ->
    let l = t.links.(src).(dst) in
    l.q <- handler :: l.q;
    l.q_n <- l.q_n + 1;
    l.q_bytes <- l.q_bytes + bytes;
    if p.adaptive && l.inflight = 0 then
      flush t ~src ~dst ~adaptive:true Flush_idle
    else if l.q_n >= p.batch_max then
      flush t ~src ~dst ~adaptive:p.adaptive Flush_size
    else if not l.q_armed then begin
      l.q_armed <- true;
      let gen = l.q_gen in
      Engine.schedule ~kind:"net.flush" t.engine ~after:p.batch_us (fun () ->
          if l.q_armed && l.q_gen = gen then
            flush t ~src ~dst ~adaptive:p.adaptive Flush_deadline)
    end

(* Batch accounting *)

let batch_envelopes t = t.b_envelopes

let batch_members t = t.b_members

let batch_flush_deadline t = t.b_flush_deadline

let batch_flush_size t = t.b_flush_size

let batch_flush_idle t = t.b_flush_idle

let batch_max_members t = t.b_max_members

let batch_sizes t = t.b_sizes

(* {2 Crashes} — the transmit step treats a crashed site as every one of
   its links (in and out) being severed, charged to the crash counter. *)

let set_down t site = t.down.(site) <- true

let set_up t site = t.down.(site) <- false

let is_down t site = t.down.(site)

(* {2 Per-link faults} *)

let block_link t ~src ~dst = t.links.(src).(dst).blocked <- true

let unblock_link t ~src ~dst = t.links.(src).(dst).blocked <- false

let link_blocked t ~src ~dst = t.links.(src).(dst).blocked

let partition t a b =
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          block_link t ~src:i ~dst:j;
          block_link t ~src:j ~dst:i)
        b)
    a

let heal_partitions t =
  Array.iter (fun row -> Array.iter (fun l -> l.blocked <- false) row) t.links

let set_loss t ~src ~dst p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Net.set_loss: p must be in [0, 1)";
  t.links.(src).(dst).loss <- p

let set_dup t ~src ~dst p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Net.set_dup: p must be in [0, 1)";
  t.links.(src).(dst).dup <- p

let set_extra_delay t ~src ~dst us =
  if us < 0 then invalid_arg "Net.set_extra_delay: negative delay";
  t.links.(src).(dst).extra_us <- us

let set_reorder t ~src ~dst ~prob ~max_extra_us =
  if prob < 0.0 || prob >= 1.0 then invalid_arg "Net.set_reorder: prob in [0, 1)";
  t.links.(src).(dst).reorder <- prob;
  t.links.(src).(dst).reorder_max_us <- max_extra_us

let clear_link_faults t =
  Array.iter
    (fun row ->
      Array.iter
        (fun l ->
          l.loss <- 0.0;
          l.dup <- 0.0;
          l.extra_us <- 0;
          l.reorder <- 0.0;
          l.reorder_max_us <- 0)
        row)
    t.links

(* {2 Counters} *)

let messages_dropped t =
  t.n_dropped_crash + t.n_dropped_partition + t.n_dropped_loss

let dropped_crash t = t.n_dropped_crash

let dropped_partition t = t.n_dropped_partition

let dropped_loss t = t.n_dropped_loss

let messages_duplicated t = t.n_duplicated

let messages_delayed t = t.n_delayed

let messages_sent t = t.n_messages

let bytes_sent t = t.n_bytes

let rtt_ms t ~src ~dst = t.rtt.(src).(dst)
