(* Structural checks over the source tree: each case greps for a path
   the design deleted or confined to one module, so tier-1 catches it
   coming back. The tree is staged under dune's build directory by
   [(deps (source_tree ...))] in test/dune; [dune exec] from the project
   root reads the source tree directly. *)

let check = Alcotest.check

let root = if Sys.file_exists "lib" && Sys.is_directory "lib" then "." else ".."

(* Dune's build products next to a library's or an executable's
   sources: its object and merlin directories (hidden), archives, alias
   module and executables, and the [_build] directory a test run writes
   its logs to. They are not part of the source tree and may name
   functions the sources only reach through inlining. *)
let build_product name =
  name.[0] = '.' || name = "_build"
  || List.exists (Filename.check_suffix name)
       [ ".a"; ".cma"; ".cmxa"; ".cmxs"; ".ml-gen"; ".exe"; ".bc" ]

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if build_product name then []
         else if Sys.is_directory path then files path
         else [ path ])

let lines path =
  In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n'

(* Every [file:line: text] under [dirs] (relative to the project root)
   that matches [re], as [grep -rnE] prints it. *)
let grep re dirs =
  List.concat_map
    (fun dir ->
      files (Filename.concat root dir)
      |> List.concat_map (fun path ->
             List.mapi (fun i l -> (i + 1, l)) (lines path)
             |> List.filter_map (fun (n, l) ->
                    match Str.search_forward re l 0 with
                    | _ -> Some (Printf.sprintf "%s:%d: %s" path n l)
                    | exception Not_found -> None)))
    dirs

let none_found what hits =
  check (Alcotest.list Alcotest.string) what [] hits

(* One ingress path. Admission, expiry drops, station cost and retry
   budgets are decided only in Sim.Flow (lib/sim); the protocols and the
   replication layer call it instead of the station and budget. *)
let test_one_ingress_path () =
  none_found
    "overload decision outside Sim.Flow under lib/spanner, lib/gryff or \
     lib/replication"
    (grep
       (Str.regexp
          {|Station\.try_submit\|Station\.amortized\|Budget\.try_take\|backlog_us|})
       [ "lib/spanner"; "lib/gryff"; "lib/replication" ])

(* One retry path. Sim.Flow decides every client re-offer, whatever
   triggered it: a NACK, an Rpc timeout or Spanner's failover RO
   re-issue. It owns the retry budget, so Spanner and Gryff spend it by
   the same rules; Sim.Rpc only retransmits. Today the compiler already
   rejects both patterns (Rpc has no Budget, flow.mli hides try_take);
   the case catches a later change that re-creates a budget in Rpc or
   re-exports try_take, both of which would build. *)
let test_one_retry_path () =
  let flow_ml = Filename.concat root "lib/sim/flow.ml" ^ ":" in
  let dirs = [ "lib"; "bin"; "bench"; "test" ] in
  none_found "retry decision outside Sim.Flow under lib, bin, bench or test"
    (grep (Str.regexp {|Rpc\.Budget|}) dirs
    @ List.filter
        (fun hit -> not (String.starts_with ~prefix:flow_ml hit))
        (grep (Str.regexp {|Budget\.try_take|}) dirs))

(* Typed int tables. Per-op protocol state keyed by ints lives in
   Sim.Int_table. The stdlib Hashtbls left in these files are the ones
   whose fold order reaches the schedule (Locks.dirty, Shard's prepared
   table, group_by_shard's table) and Gryff's tables keyed by instance-id
   pairs; a new one must say why here. *)
let test_typed_int_tables () =
  let creates path =
    List.length
      (List.filter
         (fun l ->
           match Str.search_forward (Str.regexp_string "Hashtbl.create") l 0 with
           | _ -> true
           | exception Not_found -> false)
         (lines (Filename.concat root path)))
  in
  List.iter
    (fun (path, at_most) ->
      let got = creates path in
      if got > at_most then
        Alcotest.failf "%s creates %d stdlib Hashtbls; at most %d are documented"
          path got at_most)
    [
      ("lib/spanner/locks.ml", 1);
      ("lib/spanner/shard.ml", 1);
      ("lib/spanner/types.ml", 0);
      ("lib/spanner/protocol.ml", 1);
      ("lib/gryff/replica.ml", 5);
      ("lib/replication/group.ml", 0);
    ]

let suites =
  [
    ( "structure",
      [
        Alcotest.test_case "one ingress path" `Quick test_one_ingress_path;
        Alcotest.test_case "one retry path" `Quick test_one_retry_path;
        Alcotest.test_case "typed int tables" `Quick test_typed_int_tables;
      ] );
  ]
