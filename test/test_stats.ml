(* Property tests for Stats.Recorder: percentiles, min/max, and mean agree
   with naive sort-based oracles on arbitrary sample sets, and the [*_opt]
   variants are total — [None] exactly when the recorder is empty. *)

let check = Alcotest.check
let bool = Alcotest.bool
let qt = QCheck_alcotest.to_alcotest

module R = Stats.Recorder

(* The documented definition, computed independently from a sorted copy:
   nearest-rank with linear interpolation over len-1 intervals. *)
let oracle_percentile samples p =
  let a = Array.of_list (List.sort compare samples) in
  let n = Array.length a in
  if n = 1 then float_of_int a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then float_of_int a.(lo)
    else
      ((1.0 -. (rank -. float_of_int lo)) *. float_of_int a.(lo))
      +. ((rank -. float_of_int lo) *. float_of_int a.(hi))
  end

let recorder_of samples =
  let r = R.create () in
  List.iter (R.add r) samples;
  r

let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a)

let samples_gen =
  QCheck.(list_of_size (Gen.int_range 1 200) (int_range (-1_000) 1_000_000))

let prop_percentile_matches_oracle =
  QCheck.Test.make ~name:"percentile matches sort-based oracle" ~count:300
    QCheck.(pair samples_gen (float_range 0.0 100.0))
    (fun (samples, p) ->
      let r = recorder_of samples in
      close (R.percentile r p) (oracle_percentile samples p)
      && close (R.percentile_ms r p) (oracle_percentile samples p /. 1000.0))

let prop_extremes_match_oracle =
  QCheck.Test.make ~name:"min/max/mean match oracles" ~count:300 samples_gen
    (fun samples ->
      let r = recorder_of samples in
      let sum = List.fold_left (fun a x -> a +. float_of_int x) 0.0 samples in
      R.min r = List.fold_left Stdlib.min (List.hd samples) samples
      && R.max r = List.fold_left Stdlib.max (List.hd samples) samples
      && close (R.mean r) (sum /. float_of_int (List.length samples))
      && R.count r = List.length samples)

let prop_opt_variants_total =
  QCheck.Test.make ~name:"*_opt = Some of the raising variant" ~count:300
    QCheck.(pair samples_gen (float_range 0.0 100.0))
    (fun (samples, p) ->
      let r = recorder_of samples in
      R.min_opt r = Some (R.min r)
      && R.max_opt r = Some (R.max r)
      && R.percentile_opt r p = Some (R.percentile r p)
      && R.percentile_ms_opt r p = Some (R.percentile_ms r p))

(* Percentiles interleave with adds: ensure_sorted must re-sort after
   mutation, never serve a stale order. *)
let prop_interleaved_adds =
  QCheck.Test.make ~name:"percentile correct after interleaved adds" ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 50) (int_range 0 10_000))
        (list_of_size (Gen.int_range 1 50) (int_range 0 10_000)))
    (fun (first, second) ->
      let r = recorder_of first in
      ignore (R.percentile r 50.0);
      List.iter (R.add r) second;
      close (R.percentile r 90.0) (oracle_percentile (first @ second) 90.0))

let test_empty_recorder_paths () =
  let r = R.create () in
  check bool "is_empty" true (R.is_empty r);
  check bool "min_opt" true (R.min_opt r = None);
  check bool "max_opt" true (R.max_opt r = None);
  check bool "percentile_opt" true (R.percentile_opt r 50.0 = None);
  check bool "percentile_ms_opt" true (R.percentile_ms_opt r 99.0 = None);
  (match R.min r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "min on empty should raise");
  (match R.percentile r 50.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "percentile on empty should raise")

let test_merge_is_union () =
  let a = recorder_of [ 5; 1; 9 ] and b = recorder_of [ 2; 7 ] in
  let m = R.merge a b in
  check bool "count" true (R.count m = 5);
  check bool "sorted union" true
    (R.to_sorted_array m = [| 1; 2; 5; 7; 9 |])

(* The sort over every sign and magnitude: full-range ints, with clusters
   of equal samples, so both taken and skipped radix passes are covered. *)
let prop_sort_matches_list_sort =
  let sample =
    QCheck.Gen.(
      frequency
        [
          (3, int_range 0 100);
          (2, int_range (-1_000_000) 1_000_000);
          (2, int);
          (1, oneofl [ min_int; max_int; 0; -1 ]);
        ])
  in
  QCheck.Test.make ~name:"sorted array matches List.sort" ~count:300
    QCheck.(make Gen.(list_size (int_range 0 600) sample))
    (fun xs ->
      let r = recorder_of xs in
      let seen = ref [] in
      R.iter (fun x -> seen := x :: !seen) r;
      let sorted = List.sort compare xs in
      List.sort compare !seen = sorted
      && Array.to_list (R.to_sorted_array r) = sorted)

let suites =
  [
    ( "stats.recorder",
      [
        qt prop_percentile_matches_oracle;
        qt prop_extremes_match_oracle;
        qt prop_opt_variants_total;
        qt prop_interleaved_adds;
        qt prop_sort_matches_list_sort;
        Alcotest.test_case "empty recorder paths" `Quick
          test_empty_recorder_paths;
        Alcotest.test_case "merge is union" `Quick test_merge_is_union;
      ] );
  ]
