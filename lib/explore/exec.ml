type input = {
  protocol : Chaos.Audit.protocol;
  preset : Chaos.Nemesis.preset;
  seed : int;
  nemesis_seed : int;
  duration_ms : int;
  n_slots : int;
  n_keys : int;
  timeout_ms : int;
  conflict_pct : int;
  write_pct : int;
  batch_us : int;
  batch_max : int;
  disk_rate_pct : int;
  unsafe : bool;
  perturb : Perturb.t;
}

(* Small hot keyspaces and short runs: contention is what makes races
   (and the seeded-bug control) reachable within a search budget, and a
   trial has to be cheap enough to run hundreds of times. *)
let base protocol =
  let gryff =
    match protocol with
    | Chaos.Audit.Gryff_lin | Chaos.Audit.Gryff_rsc -> true
    | Chaos.Audit.Spanner_strict | Chaos.Audit.Spanner_rss -> false
  in
  {
    protocol;
    preset = Chaos.Nemesis.Partition_heal;
    seed = 1;
    nemesis_seed = 1;
    duration_ms = 1_500;
    n_slots = 8;
    n_keys = (if gryff then 8 else 64);
    timeout_ms = 2_000;
    conflict_pct = 80;
    write_pct = 40;
    batch_us = 0;
    batch_max = 16;
    disk_rate_pct = 0;
    unsafe = false;
    perturb = Perturb.none;
  }

let validate i =
  let err fmt = Fmt.kstr Result.error fmt in
  if i.duration_ms <= 0 then err "duration_ms must be positive"
  else if i.n_slots <= 0 then err "n_slots must be positive"
  else if i.n_keys <= 0 then err "n_keys must be positive"
  else if i.timeout_ms <= 0 then err "timeout_ms must be positive"
  else if i.conflict_pct < 0 || i.conflict_pct > 100 then
    err "conflict_pct out of [0, 100]"
  else if i.write_pct < 0 || i.write_pct > 100 then
    err "write_pct out of [0, 100]"
  else if i.batch_us < 0 then err "batch_us must be non-negative"
  else if i.batch_us > 0 && i.batch_max <= 0 then
    err "batch_max must be positive when batching is on"
  else if i.disk_rate_pct < 0 then err "disk_rate_pct must be non-negative"
  else Ok ()

let describe i =
  let tie, jitter = Perturb.to_string i.perturb in
  Fmt.str
    "%s/%s seed=%d nseed=%d dur=%dms slots=%d keys=%d%s%s%s%s%s tie=%s \
     jitter=%s"
    (Chaos.Audit.protocol_name i.protocol)
    (Chaos.Nemesis.preset_name i.preset)
    i.seed i.nemesis_seed i.duration_ms i.n_slots i.n_keys
    (let b = base i.protocol in
     if i.timeout_ms <> b.timeout_ms then Fmt.str " timeout=%dms" i.timeout_ms
     else "")
    (if i.batch_us > 0 then Fmt.str " batch=%dus/%d" i.batch_us i.batch_max
     else "")
    (if i.disk_rate_pct > 0 then Fmt.str " disk=%d%%" i.disk_rate_pct else "")
    (if i.unsafe then " UNSAFE" else "")
    (match i.protocol with
    | Chaos.Audit.Gryff_lin | Chaos.Audit.Gryff_rsc ->
      Fmt.str " conflict=%d%% write=%d%%" i.conflict_pct i.write_pct
    | _ -> "")
    tie jitter

let equal a b =
  a.protocol = b.protocol && a.preset = b.preset && a.seed = b.seed
  && a.nemesis_seed = b.nemesis_seed
  && a.duration_ms = b.duration_ms
  && a.n_slots = b.n_slots && a.n_keys = b.n_keys
  && a.timeout_ms = b.timeout_ms
  && a.conflict_pct = b.conflict_pct
  && a.write_pct = b.write_pct && a.batch_us = b.batch_us
  && a.batch_max = b.batch_max
  && a.disk_rate_pct = b.disk_rate_pct
  && a.unsafe = b.unsafe
  && Perturb.equal a.perturb b.perturb

type outcome = {
  verdict : Rss_core.Check_online.verdict;
  signature : string;
  trace_digest : string;
  run : Harness.Run.t;
}

let verdict_string = function
  | Rss_core.Check_online.Pass -> "pass"
  | Rss_core.Check_online.Fail m -> "fail: " ^ m
  | Rss_core.Check_online.Unknown m -> "unknown: " ^ m

let is_fail = function Rss_core.Check_online.Fail _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Coverage signature                                                  *)
(* ------------------------------------------------------------------ *)

(* Log2 buckets: 0, 1, 2-3, 4-7, ... Counters only need to land in the
   same bucket to count as "the same behaviour"; the signature is the
   dedup key of the search's coverage map. *)
let bucket v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

let signature_of_run r =
  let b name = bucket (Harness.Run.counter r name) in
  let b2 x y = bucket (Harness.Run.counter r x + Harness.Run.counter r y) in
  Fmt.str "v%d c%d p%d l%d d%d y%d q%d m%d r%d t%d u%d s%d w%d"
    (b "failover.view_changes") (b "fault.dropped_crash")
    (b "fault.dropped_partition") (b "fault.dropped_loss")
    (b "fault.duplicated") (b "fault.delayed")
    (b "failover.in_doubt_resolved")
    (b2 "place.migrations" "place.migration_retries")
    (b "place.redirects") (b "op.timed_out") (b "op.unacked_commits_swept")
    (b2 "durable.fault.crashes" "durable.scrub.flagged")
    (b "check.max_displacement")

let assess ~protocol ~preset run =
  let verdict = run.Harness.Run.check in
  let signature =
    (* Protocol and preset belong in the dedup key — the same counter
       buckets under a different fault mix are a different behaviour. *)
    let v =
      match verdict with
      | Rss_core.Check_online.Pass -> "P"
      | Rss_core.Check_online.Fail _ -> "F"
      | Rss_core.Check_online.Unknown _ -> "U"
    in
    Fmt.str "%s|%s|%s|%s"
      (Chaos.Audit.protocol_name protocol)
      (Chaos.Nemesis.preset_name preset)
      (signature_of_run run)
      v
  in
  {
    verdict;
    signature;
    trace_digest = Digest.to_hex (Digest.string (Harness.audit_trace run));
    run;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run i =
  (match validate i with
  | Ok () -> ()
  | Error m -> invalid_arg ("Explore.Exec.run: " ^ m));
  let duration_s = float_of_int i.duration_ms /. 1_000.0 in
  let env =
    Harness.Env.(
      of_preset
        ~disk_rate:(float_of_int i.disk_rate_pct /. 100.0)
        ~n_keys:i.n_keys i.protocol i.preset ~duration_s
        ~nemesis_seed:i.nemesis_seed
      |> with_batching
           (if i.batch_us > 0 then
              Some
                {
                  Sim.Net.batch_us = i.batch_us;
                  batch_max = i.batch_max;
                  adaptive = false;
                }
            else None))
  in
  let run =
    Harness.audit ~env
      ~prepare:(fun engine net -> Perturb.install i.perturb ~engine ~net)
      ~n_slots:i.n_slots ~n_keys:i.n_keys ~timeout_us:(i.timeout_ms * 1_000)
      ~conflict:(float_of_int i.conflict_pct /. 100.0)
      ~write_ratio:(float_of_int i.write_pct /. 100.0)
      ~unsafe_no_deps:i.unsafe i.protocol ~duration_s ~seed:i.seed ()
  in
  assess ~protocol:i.protocol ~preset:i.preset run
