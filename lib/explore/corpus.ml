let version = "rss-explore/corpus/v1"

type entry = { input : Exec.input; expected : string }

let to_string e =
  let i = e.input in
  let tie, jitter = Perturb.to_string i.Exec.perturb in
  let buf = Buffer.create 512 in
  let line k v = Buffer.add_string buf (k ^ " " ^ v ^ "\n") in
  Buffer.add_string buf (version ^ "\n");
  line "protocol" (Chaos.Audit.protocol_name i.Exec.protocol);
  line "preset" (Chaos.Nemesis.preset_name i.Exec.preset);
  line "seed" (string_of_int i.Exec.seed);
  line "nemesis_seed" (string_of_int i.Exec.nemesis_seed);
  line "duration_ms" (string_of_int i.Exec.duration_ms);
  line "slots" (string_of_int i.Exec.n_slots);
  line "keys" (string_of_int i.Exec.n_keys);
  line "timeout_ms" (string_of_int i.Exec.timeout_ms);
  line "conflict_pct" (string_of_int i.Exec.conflict_pct);
  line "write_pct" (string_of_int i.Exec.write_pct);
  line "batch_us" (string_of_int i.Exec.batch_us);
  line "batch_max" (string_of_int i.Exec.batch_max);
  line "disk_rate_pct" (string_of_int i.Exec.disk_rate_pct);
  line "unsafe" (string_of_bool i.Exec.unsafe);
  line "tie" tie;
  line "jitter" jitter;
  line "expected" e.expected;
  Buffer.contents buf

let of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char '\n' s with
  | [] -> Error "empty corpus file"
  | header :: rest ->
    if not (String.equal (String.trim header) version) then
      Error (Fmt.str "bad corpus header %S (want %S)" (String.trim header) version)
    else begin
      let fields = Hashtbl.create 32 in
      List.iter
        (fun line ->
          let line = String.trim line in
          if String.length line > 0 then
            match String.index_opt line ' ' with
            | Some i ->
              Hashtbl.replace fields
                (String.sub line 0 i)
                (String.sub line (i + 1) (String.length line - i - 1))
            | None -> Hashtbl.replace fields line "")
        rest;
      let field k =
        match Hashtbl.find_opt fields k with
        | Some v -> Ok v
        | None -> Error (Fmt.str "corpus file missing field %S" k)
      in
      let int_field k =
        let* v = field k in
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Fmt.str "corpus field %s: bad integer %S" k v)
      in
      let* proto_s = field "protocol" in
      let* protocol =
        match Chaos.Audit.protocol_of_string proto_s with
        | Some p -> Ok p
        | None -> Error (Fmt.str "unknown protocol %S" proto_s)
      in
      let* preset_s = field "preset" in
      let* preset =
        match Chaos.Nemesis.preset_of_string preset_s with
        | Some p -> Ok p
        | None -> Error (Fmt.str "unknown preset %S" preset_s)
      in
      let* seed = int_field "seed" in
      let* nemesis_seed = int_field "nemesis_seed" in
      let* duration_ms = int_field "duration_ms" in
      let* n_slots = int_field "slots" in
      let* n_keys = int_field "keys" in
      let* timeout_ms = int_field "timeout_ms" in
      let* conflict_pct = int_field "conflict_pct" in
      let* write_pct = int_field "write_pct" in
      let* batch_us = int_field "batch_us" in
      let* batch_max = int_field "batch_max" in
      let* disk_rate_pct = int_field "disk_rate_pct" in
      let* unsafe_s = field "unsafe" in
      let* unsafe =
        match bool_of_string_opt unsafe_s with
        | Some b -> Ok b
        | None -> Error (Fmt.str "corpus field unsafe: bad bool %S" unsafe_s)
      in
      let* tie = field "tie" in
      let* jitter = field "jitter" in
      let* perturb = Perturb.of_string ~tie ~jitter in
      let* expected = field "expected" in
      let input =
        {
          Exec.protocol;
          preset;
          seed;
          nemesis_seed;
          duration_ms;
          n_slots;
          n_keys;
          timeout_ms;
          conflict_pct;
          write_pct;
          batch_us;
          batch_max;
          disk_rate_pct;
          unsafe;
          perturb;
        }
      in
      let* () = Exec.validate input in
      Ok { input; expected }
    end

let rec mkdir_p dir =
  if
    String.length dir > 0
    && (not (String.equal dir "/"))
    && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let save path e =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (to_string e)

let load path =
  match
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  with
  | s -> of_string s
  | exception Sys_error m -> Error m

let file_name e =
  let digest =
    String.sub (Digest.to_hex (Digest.string (to_string e))) 0 8
  in
  Fmt.str "%s-%s-%s.corpus"
    (Chaos.Audit.protocol_name e.input.Exec.protocol)
    (Chaos.Nemesis.preset_name e.input.Exec.preset)
    digest

type replay = { entry : entry; outcome : Exec.outcome; matches : bool }

let replay entry =
  let outcome = Exec.run entry.input in
  let matches =
    String.equal (Exec.verdict_string outcome.Exec.verdict) entry.expected
  in
  { entry; outcome; matches }

let replay_file path = Result.map replay (load path)
