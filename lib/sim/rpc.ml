module Budget = struct
  type t = {
    engine : Engine.t;
    capacity : int;
    refill_period_us : int;
    mutable tokens : int;
    mutable last_refill : int;
    mutable n_taken : int;
    mutable n_denied : int;
  }

  let create engine ~capacity ~refill_period_us =
    if capacity < 1 then invalid_arg "Rpc.Budget.create: capacity must be >= 1";
    if refill_period_us < 1 then
      invalid_arg "Rpc.Budget.create: refill_period_us must be >= 1";
    {
      engine;
      capacity;
      refill_period_us;
      tokens = capacity;
      last_refill = 0;
      n_taken = 0;
      n_denied = 0;
    }

  (* Lazy integer refill: tokens earned are whole periods elapsed since the
     last refill, and the refill clock only advances by the periods actually
     credited — no float drift, no timer events, deterministic for a given
     schedule. *)
  let refill t =
    let now = Engine.now t.engine in
    let earned = (now - t.last_refill) / t.refill_period_us in
    if earned > 0 then begin
      t.tokens <- min t.capacity (t.tokens + earned);
      t.last_refill <- t.last_refill + (earned * t.refill_period_us)
    end

  let try_take t =
    refill t;
    if t.tokens > 0 then begin
      t.tokens <- t.tokens - 1;
      t.n_taken <- t.n_taken + 1;
      true
    end
    else begin
      t.n_denied <- t.n_denied + 1;
      false
    end

  let tokens t =
    refill t;
    t.tokens

  let taken t = t.n_taken

  let denied t = t.n_denied
end

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

let call ?(name = "rpc.call") t ~attempt ~on_result =
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
  let settled = ref false in
  let ok v =
    if not !settled then begin
      settled := true;
      if traced then Obs.Trace.end_span tr call_sp ~ts:(Engine.now t.engine);
      on_result (Some v)
    end
  in
  let rec go n =
    if not !settled then
      if n > t.max_attempts then begin
        t.n_exhausted <- t.n_exhausted + 1;
        if traced then begin
          Obs.Trace.instant ~parent:call_sp tr ~name:"rpc.exhausted"
            ~ts:(Engine.now t.engine);
          Obs.Trace.end_span tr call_sp ~ts:(Engine.now t.engine)
        end;
        on_result None
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
           randomness, keeping retry-free runs on the unperturbed stream. *)
        let backoff = min t.max_backoff_us (t.timeout_us lsl min (n - 1) 16) in
        let jitter = if n = 1 then 0 else Rng.int t.rng (max 1 (backoff / 4)) in
        Engine.schedule ~kind:"rpc.backoff" t.engine ~after:(backoff + jitter)
          (fun () -> go (n + 1))
      end
  in
  go 1

let calls t = t.n_calls

let retries t = t.n_retries

let exhausted t = t.n_exhausted
