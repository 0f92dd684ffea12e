(* Sim.Rpc as it was before calls took a caller context, kept verbatim
   as the reference for test sim.rpc's differential test; only this
   comment and the [open Sim] line are added. *)
open Sim

type t = {
  engine : Engine.t;
  rng : Rng.t;
  flow : Flow.t option;
  timeout_us : int;
  max_backoff_us : int;
  max_attempts : int;
  mutable n_calls : int;
  mutable n_retries : int;
  mutable n_exhausted : int;
  mutable tracer : Obs.Trace.t;
}

let create engine ~rng ?flow ?(timeout_us = 500_000)
    ?(max_backoff_us = 2_000_000) ?(max_attempts = 8) () =
  if timeout_us <= 0 then invalid_arg "Rpc.create: timeout_us must be positive";
  if max_attempts < 1 then invalid_arg "Rpc.create: max_attempts must be >= 1";
  {
    engine;
    rng;
    flow;
    timeout_us;
    max_backoff_us;
    max_attempts;
    n_calls = 0;
    n_retries = 0;
    n_exhausted = 0;
    tracer = Obs.Trace.disabled;
  }

let set_tracer t tracer = t.tracer <- tracer

(* One logical call. [timer] is the pending timeout's handle while the
   call is open, [settled] once it has delivered its result, and
   [unarmed] before the first timeout is scheduled; both markers are
   negative, so they name no event. [ok] is the call's one reply closure,
   handed to every attempt. *)
type 'a call = {
  rpc : t;
  attempt : attempt:int -> ok:('a -> unit) -> unit;
  on_result : 'a option -> unit;
  expires : int option;
  sends : int ref option;
  tracer : Obs.Trace.t;
  span : Obs.Trace.span;
  mutable timer : int;
  ok : 'a -> unit;
}

let settled = -1

let unarmed = -2

let settle c =
  Engine.cancel c.rpc.engine c.timer;
  c.timer <- settled

let give_up c marker =
  let tr = c.tracer and now = Engine.now c.rpc.engine in
  if Obs.Trace.enabled tr then begin
    Obs.Trace.instant ~parent:c.span tr ~name:marker ~ts:now;
    Obs.Trace.end_span tr c.span ~ts:now
  end;
  c.on_result None

let reply c v =
  if c.timer <> settled then begin
    settle c;
    if Obs.Trace.enabled c.tracer then
      Obs.Trace.end_span c.tracer c.span ~ts:(Engine.now c.rpc.engine);
    c.on_result (Some v)
  end

(* A re-attempt is a client re-offer, so Flow decides it as it fires. *)
let may_reattempt c =
  match c.rpc.flow with
  | None -> true
  | Some f -> Flow.may_retry f ?expires:c.expires ?sends:c.sends ~after_us:0 ()

let rec go c n =
  let t = c.rpc in
  if c.timer <> settled then
    if n > t.max_attempts then begin
      (* Settled first: a reply to an earlier attempt that lands after
         this point must not reach [on_result] as [Some v] after [None]. *)
      settle c;
      t.n_exhausted <- t.n_exhausted + 1;
      give_up c "rpc.exhausted"
    end
    else if n > 1 && not (may_reattempt c) then begin
      settle c;
      give_up c "rpc.abandoned"
    end
    else begin
      if n > 1 then t.n_retries <- t.n_retries + 1;
      let tr = c.tracer in
      if Obs.Trace.enabled tr then begin
        if n > 1 then
          Obs.Trace.instant ~parent:c.span tr ~name:"rpc.retry"
            ~ts:(Engine.now t.engine);
        Obs.Trace.with_current tr c.span (fun () -> c.attempt ~attempt:n ~ok:c.ok)
      end
      else c.attempt ~attempt:n ~ok:c.ok;
      (* Per-attempt timeout doubles (capped); retries add jitter so
         concurrent callers de-synchronize. The first attempt draws no
         randomness, keeping retry-free runs on the unperturbed stream.
         The timeout is scheduled even when the attempt has already
         settled the call, and is then cancelled at once: a call's
         pushes, and so every later event's seq, do not depend on when
         its reply lands. *)
      let backoff = min t.max_backoff_us (t.timeout_us lsl min (n - 1) 16) in
      let jitter = if n = 1 then 0 else Rng.int t.rng (max 1 (backoff / 4)) in
      let h =
        Engine.schedule_cancellable ~kind:"rpc.backoff" t.engine
          ~after:(backoff + jitter) (fun () -> go c (n + 1))
      in
      if c.timer = settled then Engine.cancel t.engine h else c.timer <- h
    end

let call ?(name = "rpc.call") ?expires ?sends t ~attempt ~on_result =
  t.n_calls <- t.n_calls + 1;
  let tracer = t.tracer in
  (* One span covers the whole logical call; every attempt (including
     retransmissions fired from the backoff timer, where the ambient span
     would otherwise be lost) runs with it as the ambient parent, so hops
     of attempt N still chain to the same call span. *)
  let span =
    if Obs.Trace.enabled tracer then
      Obs.Trace.begin_span tracer ~kind:Obs.Trace.Rpc ~name
        ~ts:(Engine.now t.engine)
    else Obs.Trace.none
  in
  let rec c =
    {
      rpc = t;
      attempt;
      on_result;
      expires;
      sends;
      tracer;
      span;
      timer = unarmed;
      ok = (fun v -> reply c v);
    }
  in
  go c 1

let calls t = t.n_calls

let retries t = t.n_retries

let exhausted t = t.n_exhausted
