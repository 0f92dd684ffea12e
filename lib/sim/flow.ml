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
    if capacity < 1 then invalid_arg "Flow.Budget.create: capacity must be >= 1";
    if refill_period_us < 1 then
      invalid_arg "Flow.Budget.create: refill_period_us must be >= 1";
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

type reject = Expired | Pushback of Station.pushback

type stats = {
  expired : int;
  shed : int;
  abandoned : int;
  hedges : int;
  hedge_wins : int;
}

type t = {
  engine : Engine.t;
  net : Net.t;
  mutable drop_expired : bool;
  mutable hedge_us : int;
  mutable budget : Budget.t option;
  mutable expired : int;
  mutable shed : int;
  mutable abandoned : int;
  mutable hedges : int;
  mutable hedge_wins : int;
}

let create net =
  {
    engine = Net.engine net;
    net;
    drop_expired = false;
    hedge_us = 0;
    budget = None;
    expired = 0;
    shed = 0;
    abandoned = 0;
    hedges = 0;
    hedge_wins = 0;
  }

let arm t ~stations ~admission ~drop_expired ~hedge_us ~budget =
  if hedge_us < 0 then invalid_arg "Flow.arm: negative hedge delay";
  List.iter (fun st -> Station.set_limits st admission) stations;
  t.drop_expired <- drop_expired;
  t.hedge_us <- hedge_us;
  t.budget <- budget

let hedge_us t = t.hedge_us
let budget t = t.budget

let stats t =
  {
    expired = t.expired;
    shed = t.shed;
    abandoned = t.abandoned;
    hedges = t.hedges;
    hedge_wins = t.hedge_wins;
  }

let expires t = function
  | Some d when t.drop_expired -> Some (Engine.now t.engine + d)
  | Some _ | None -> None

(* Station queueing runs the job from a fresh engine event, which would
   lose the delivery hop as ambient parent — carry it across explicitly. *)
let carry tracer job =
  if Obs.Trace.enabled tracer then begin
    let sp = Obs.Trace.current tracer in
    fun () -> Obs.Trace.with_current tracer sp job
  end
  else job

let cost station env_idx =
  Station.amortized ~full:(Station.service_time_us station) env_idx

let serve ~tracer station env_idx job =
  Station.submit ~cost:(cost station env_idx) station (carry tracer job)

(* Only refusals allocate the NACK and its closure. *)
let nack t ~src ~dst k r =
  Net.post ~bytes:32 t.net ~src:dst ~dst:src (fun _env_idx -> k r)

(* [expires] is [Some] only when expiry drops are armed (see [expires]). *)
let ingress t station ~tracer ~src ~dst ?expires ?reject env_idx job =
  match expires with
  | Some e when Engine.now t.engine + Station.backlog_us station > e -> (
    t.expired <- t.expired + 1;
    match reject with Some k -> nack t ~src ~dst k Expired | None -> ())
  | Some _ | None -> (
    match reject with
    | None -> serve ~tracer station env_idx job
    | Some k -> (
      match
        Station.try_submit ~cost:(cost station env_idx) station
          (carry tracer job)
      with
      | Station.Admitted -> ()
      | Station.Shed pb ->
        t.shed <- t.shed + 1;
        nack t ~src ~dst k (Pushback pb)))

let may_refuse station ~expires =
  match (expires, Station.limits station) with
  | None, None -> false
  | Some _, _ | _, Some _ -> true

let max_sends = 8

(* The budget is asked last, so only a re-offer that will really be sent
   takes a token (or counts a denial). *)
let may_resend t ~expires ~sends ~after_us =
  let in_time =
    match expires with
    | None -> true
    | Some e -> Engine.now t.engine + after_us < e
  in
  let ok =
    sends < max_sends && in_time
    && (match t.budget with None -> true | Some b -> Budget.try_take b)
  in
  if not ok then t.abandoned <- t.abandoned + 1;
  ok

let may_retry t ?expires ?sends ~after_us () =
  match sends with
  | None -> may_resend t ~expires ~sends:0 ~after_us
  | Some n ->
    let ok = may_resend t ~expires ~sends:!n ~after_us in
    if ok then incr n;
    ok

let backoff t ~after_us k =
  Engine.schedule ~kind:"txn.backoff" t.engine ~after:after_us k

let retry t ?expires ?sends ~after_us k =
  if may_retry t ?expires ?sends ~after_us () then backoff t ~after_us k

let abandon t = t.abandoned <- t.abandoned + 1
let hedge_issued t = t.hedges <- t.hedges + 1
let hedge_won t = t.hedge_wins <- t.hedge_wins + 1
