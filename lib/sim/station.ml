type pushback = { retry_after_us : int }

type limits = { max_queue : int; max_sojourn_us : int }

type admit = Admitted | Shed of pushback

type t = {
  engine : Engine.t;
  service_time_us : int;
  mutable busy_until : int;
  mutable busy_total : int;
  mutable n_jobs : int;
  mutable n_queued : int;
  mutable slowdown : int;
  mutable limits : limits option;
  mutable observe : bool;
  mutable n_shed : int;
  queue_depths : Stats.Recorder.t;
  sojourns : Stats.Recorder.t;
}

let create engine ~service_time_us =
  {
    engine;
    service_time_us;
    busy_until = 0;
    busy_total = 0;
    n_jobs = 0;
    n_queued = 0;
    slowdown = 1;
    limits = None;
    observe = false;
    n_shed = 0;
    queue_depths = Stats.Recorder.create ();
    sojourns = Stats.Recorder.create ();
  }

let service_time_us t = t.service_time_us

let set_slowdown t factor =
  if factor < 1 then invalid_arg "Station.set_slowdown: factor must be >= 1";
  t.slowdown <- factor

let slowdown t = t.slowdown

let set_limits t limits =
  (match limits with
  | Some l ->
    if l.max_queue < 1 then
      invalid_arg "Station.set_limits: max_queue must be positive";
    if l.max_sojourn_us < 1 then
      invalid_arg "Station.set_limits: max_sojourn_us must be positive";
    t.observe <- true
  | None -> ());
  t.limits <- limits

let limits t = t.limits

let set_observe t b = t.observe <- b

(* The backlog a new arrival would sit behind: how far [busy_until] runs
   ahead of the clock. With a deterministic per-job cost this is exactly the
   arrival's sojourn-before-service. *)
let backlog_us t =
  let now = Engine.now t.engine in
  if t.busy_until > now then t.busy_until - now else 0

let queue_depth t = t.n_queued

let submit ~cost t job =
  let cost = cost * t.slowdown in
  t.n_jobs <- t.n_jobs + 1;
  if t.observe then begin
    Stats.Recorder.add t.queue_depths t.n_queued;
    Stats.Recorder.add t.sojourns (backlog_us t)
  end;
  if cost = 0 then job ()
  else begin
    let now = Engine.now t.engine in
    let start = if t.busy_until > now then t.busy_until else now in
    let finish = start + cost in
    t.busy_until <- finish;
    t.busy_total <- t.busy_total + cost;
    t.n_queued <- t.n_queued + 1;
    Engine.schedule_at ~kind:"station.job" t.engine ~at:finish (fun () ->
        t.n_queued <- t.n_queued - 1;
        job ())
  end

let try_submit ~cost t job =
  match t.limits with
  | None ->
    submit ~cost t job;
    Admitted
  | Some l ->
    let backlog = backlog_us t in
    if t.n_queued >= l.max_queue || backlog > l.max_sojourn_us then begin
      t.n_shed <- t.n_shed + 1;
      (* Suggest waiting out the backlog: by then the queue has drained to
         empty if no new work arrived — the server's honest estimate. *)
      Shed { retry_after_us = max t.service_time_us backlog }
    end
    else begin
      submit ~cost t job;
      Admitted
    end

(* Batched-envelope amortization: the head member of an envelope pays the
   full service cost; later members share the already-warm parse/dispatch
   path and pay a quarter (rounded up, so they never become free). *)
let amortized ~full idx = if idx <= 0 then full else (full + 3) / 4

let busy_us t = t.busy_total

let jobs t = t.n_jobs

let shed t = t.n_shed

let queue_depths t = t.queue_depths

let sojourns t = t.sojourns
