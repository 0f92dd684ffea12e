(* The bench-report format shared by every suite: the common command line,
   the verdict fields, one run's report object, and the envelope

     {"schema", "smoke", "seed" (seeded suites), <suite fields>, "ok"}

   written as pretty-printed JSON through [Obs.Json]. *)

type cli = {
  smoke : bool;
  out : string;
  seed : int option;  (* [None] for suites without a --seed flag *)
}

(* Parse [--smoke], [--out FILE] (default [BENCH_<suite>.json]), [--seed N]
   (default 42) unless [~seeded:false], plus the suite's [extra] specs.
   Malformed input prints the usage and exits 2. *)
let cli ?(seeded = true) ?(extra = []) suite =
  let smoke = ref false in
  let default_out = Printf.sprintf "BENCH_%s.json" suite in
  let out = ref default_out in
  let seed = ref 42 in
  let specs =
    [
      ("--smoke", Arg.Set smoke, " CI sizes (seconds, not minutes)");
      ("--out", Arg.Set_string out, "FILE output path (default " ^ default_out ^ ")");
    ]
    @ (if seeded then [ ("--seed", Arg.Set_int seed, "N seed (default 42)") ]
       else [])
    @ extra
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    (Printf.sprintf "%s [options]" (Filename.basename Sys.executable_name));
  { smoke = !smoke; out = !out; seed = (if seeded then Some !seed else None) }

let int n = Obs.Json.Num (float_of_int n)
let num_opt = function None -> Obs.Json.Null | Some f -> Obs.Json.Num f

let verdict = function
  | Harness.Run.Pass -> "pass"
  | Harness.Run.Fail _ -> "fail"
  | Harness.Run.Unknown _ -> "unknown"

(* ["verdict"] and ["detail"] (the failure or budget message; "" on Pass). *)
let verdict_fields v =
  let detail =
    match v with
    | Harness.Run.Pass -> ""
    | Harness.Run.Fail m | Harness.Run.Unknown m -> m
  in
  [ ("verdict", Obs.Json.Str (verdict v)); ("detail", Obs.Json.Str detail) ]

(* One run's report object, built from a per-suite table in field order:
   [Counter (field, name)] reports the run's counter [name] as [field] (so
   a counter keeps the one name its producer gave it), [Value (field, v)]
   a number the suite derived, and [Verdict] expands to {!verdict_fields}. *)
type field =
  | Counter of string * string
  | Value of string * Obs.Json.t
  | Verdict

let run_json (r : Harness.Run.t) fields =
  Obs.Json.Obj
    (List.concat_map
       (function
         | Counter (field, name) -> [ (field, int (Harness.Run.counter r name)) ]
         | Value (field, v) -> [ (field, v) ]
         | Verdict -> verdict_fields r.Harness.Run.check)
       fields)

(* The run's history length, as the driver counted it: still there once
   {!drop_history} has emptied the history. *)
let n_ops r = Harness.Run.counter r "op.history_records"

let sim_s (r : Harness.Run.t) = Sim.Engine.to_sec r.Harness.Run.duration_us

(* [f ()] and the host CPU seconds it took. *)
let timed f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* What a suite keeps of a large run once it is judged: every counter,
   gauge and latency, without the history. *)
let drop_history (r : Harness.Run.t) =
  {
    r with
    Harness.Run.records =
      (match r.Harness.Run.records with
      | Harness.Run.Spanner_txns _ -> Harness.Run.Spanner_txns [||]
      | Harness.Run.Gryff_ops _ -> Harness.Run.Gryff_ops [||]);
  }

(* Write the envelope around [fields] to [cli.out], print [wrote <path>],
   and exit 1 unless [ok]. *)
let write cli ~schema ~ok fields =
  let seed = match cli.seed with Some s -> [ ("seed", int s) ] | None -> [] in
  let doc =
    Obs.Json.Obj
      ((("schema", Obs.Json.Str schema) :: ("smoke", Obs.Json.Bool cli.smoke) :: seed)
      @ fields
      @ [ ("ok", Obs.Json.Bool ok) ])
  in
  Out_channel.with_open_text cli.out (fun oc ->
      output_string oc (Obs.Json.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" cli.out;
  if not ok then exit 1
