(* The benchmark's own arithmetic: order statistics, the tail rule, the
   metric-name grammar, failed-op accounting, and the flat JSON it prints.
   Everything here is pure so the tests can pin it down. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stat.median: no values"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] computes
   them (the default "exclusive" method, index clamped to [1, n-1]), so the
   spread printed here is the one a reader recomputes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stat.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs m

(* A tail percentile is reported only when at least [min_beyond] samples lie
   beyond it. Percentiles are given in parts per thousand (p99.9 = 999) so
   the rule is exact integer arithmetic: [count * (1 - p)] >= 10. *)
let min_beyond = 10

let tail_ok ~count ~permille =
  if permille < 0 || permille > 1000 then
    invalid_arg "Stat.tail_ok: permille outside [0, 1000]";
  count * (1000 - permille) >= min_beyond * 1000

(* Metric and workload names: [A-Za-z0-9_.-]+, starting with a letter or a
   digit, at most 64 characters. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let ok_first = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
    | _ -> false
  in
  String.length s >= 1
  && String.length s <= 64
  && ok_first s.[0]
  && String.for_all ok_char s

(* {2 Failed-op accounting}

   Attempts come from the protocols' own counters: Gryff counts an op when
   it is issued ([read.count] + [write.count] + [rmw.count]); Spanner counts
   each op once when it ends, as a commit, a read-only completion, or an
   abandonment ([rw.committed] + [ro.count] + [flow.abandoned]). An op is
   completed when the history holds its response. A run whose verdict is
   not [Pass] counts every attempt as failed. *)

type protocol = Spanner | Gryff

let attempted protocol counter =
  match protocol with
  | Gryff -> counter "read.count" + counter "write.count" + counter "rmw.count"
  | Spanner ->
    counter "rw.committed" + counter "ro.count" + counter "flow.abandoned"

let failed ~attempted ~completed ~pass =
  if completed > attempted then
    invalid_arg "Stat.failed: more ops completed than attempted";
  if pass then attempted - completed else attempted

let failed_frac ~attempted ~completed ~pass =
  if attempted <= 0 then invalid_arg "Stat.failed_frac: nothing attempted";
  float_of_int (failed ~attempted ~completed ~pass) /. float_of_int attempted

(* {2 The metrics the benchmark prints, with their units}

   [end_to_end] with [--trace 0], [per_layer] with [--trace 1]; the same
   names, in the same order, as BENCHMARK.json. *)

let end_to_end =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("ops_per_cpu_s", "ops/s");
    ("minor_words_per_op", "words"); ("peak_heap_mb", "MB");
    ("sim_tput_ops_s", "ops/s"); ("sim_read_mean_ms", "ms"); ("sim_write_mean_ms", "ms");
    ("sim_read_p99_ms", "ms"); ("sim_write_p99_ms", "ms");
    ("completed_ops_frac", "fraction");
  ]

let per_layer =
  [
    ("engine.events_per_op", "events/op"); ("engine.self_ns_per_event", "ns");
    ("engine.queue_depth_p50", "events"); ("net.msgs_per_op", "msgs/op");
    ("net.bytes_per_op", "bytes/op"); ("net.deliver_ns_per_event", "ns");
    ("net.envelopes_per_op", "envelopes/op"); ("net.members_per_envelope", "msgs");
    ("net.flush_ns_per_event", "ns"); ("net.dropped_frac", "fraction");
    ("station.jobs_per_op", "jobs/op"); ("station.busy_frac", "fraction");
    ("station.sojourn_p99_us", "us"); ("station.job_ns_per_event", "ns");
    ("proto.timer_ns_per_event", "ns"); ("spanner.rw_commit_frac", "fraction");
    ("spanner.ro_blocked_frac", "fraction");
    ("gryff.read_second_round_frac", "fraction"); ("rpc.retries_per_op", "retries/op");
    ("rpc.exhausted", "count"); ("check.records_per_op", "records/op");
    ("check.work_per_op", "units/op"); ("check.max_displacement", "units");
    ("check.add_ns", "ns"); ("check.result_s", "s"); ("check.cpu_frac", "fraction");
    ("workload.sample_ns", "ns"); ("obs.spans_per_op", "spans/op");
    ("obs.trace_overhead_frac", "fraction"); ("gc.promoted_words_per_op", "words");
  ]

(* {2 Flat JSON}

   Values print with every digit ("%.17g" round-trips a double); integers
   stay integers. *)

type value = Int of int | Float of float | Str of string | Bool of bool

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let json_value = function
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Str s -> json_string s
  | Bool b -> string_of_bool b

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"
