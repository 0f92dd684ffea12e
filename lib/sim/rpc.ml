type t = {
  engine : Engine.t;
  rng : Rng.t;
  timeout_us : int;
  max_backoff_us : int;
  max_attempts : int;
  mutable n_calls : int;
  mutable n_retries : int;
  mutable n_exhausted : int;
  mutable tracer : Obs.Trace.t;
}

let create engine ~rng ?(timeout_us = 500_000) ?(max_backoff_us = 2_000_000)
    ?(max_attempts = 8) () =
  if timeout_us <= 0 then invalid_arg "Rpc.create: timeout_us must be positive";
  if max_attempts < 1 then invalid_arg "Rpc.create: max_attempts must be >= 1";
  {
    engine;
    rng;
    timeout_us;
    max_backoff_us;
    max_attempts;
    n_calls = 0;
    n_retries = 0;
    n_exhausted = 0;
    tracer = Obs.Trace.disabled;
  }

let set_tracer t tracer = t.tracer <- tracer

(* A re-attempt is a client re-offer, so Flow decides it as it fires. *)
let may_reattempt flow ?expires ?sends () =
  match flow with
  | None -> true
  | Some f -> Flow.may_retry f ?expires ?sends ~after_us:0 ()

let give_up t tr call_sp marker on_result =
  if Obs.Trace.enabled tr then begin
    Obs.Trace.instant ~parent:call_sp tr ~name:marker ~ts:(Engine.now t.engine);
    Obs.Trace.end_span tr call_sp ~ts:(Engine.now t.engine)
  end;
  on_result None

let settled = -1

let unarmed = -2

let settle t timer =
  Engine.cancel t.engine !timer;
  timer := settled

let call ?(name = "rpc.call") ?flow ?expires ?sends t ~attempt ~on_result =
  t.n_calls <- t.n_calls + 1;
  let tr = t.tracer in
  let traced = Obs.Trace.enabled tr in
  (* One span covers the whole logical call; every attempt (including
     retransmissions fired from the backoff timer, where the ambient span
     would otherwise be lost) runs with it as the ambient parent, so hops
     of attempt N still chain to the same call span. *)
  let call_sp =
    if traced then
      Obs.Trace.begin_span tr ~kind:Obs.Trace.Rpc ~name
        ~ts:(Engine.now t.engine)
    else Obs.Trace.none
  in
  (* The pending timeout's handle while the call is open, [settled] once
     it has delivered its result; [unarmed] before the first timeout is
     scheduled. Both markers are negative, so they name no event. *)
  let timer = ref unarmed in
  (* One recursive group, so [ok] and [go] share one closure block. *)
  let rec ok v =
    if !timer <> settled then begin
      settle t timer;
      if traced then Obs.Trace.end_span tr call_sp ~ts:(Engine.now t.engine);
      on_result (Some v)
    end
  and go n =
    if !timer <> settled then
      if n > t.max_attempts then begin
        (* Settled first: a reply to an earlier attempt that lands after
           this point must not reach [on_result] as [Some v] after [None]. *)
        settle t timer;
        t.n_exhausted <- t.n_exhausted + 1;
        give_up t tr call_sp "rpc.exhausted" on_result
      end
      else if n > 1 && not (may_reattempt flow ?expires ?sends ()) then begin
        settle t timer;
        give_up t tr call_sp "rpc.abandoned" on_result
      end
      else begin
        if n > 1 then t.n_retries <- t.n_retries + 1;
        if traced then begin
          if n > 1 then
            Obs.Trace.instant ~parent:call_sp tr ~name:"rpc.retry"
              ~ts:(Engine.now t.engine);
          Obs.Trace.with_current tr call_sp (fun () -> attempt ~attempt:n ~ok)
        end
        else attempt ~attempt:n ~ok;
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
            ~after:(backoff + jitter) (fun () -> go (n + 1))
        in
        if !timer = settled then Engine.cancel t.engine h else timer := h
      end
  in
  go 1

let calls t = t.n_calls

let retries t = t.n_retries

let exhausted t = t.n_exhausted
