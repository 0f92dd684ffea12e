type t = {
  mutable data : int array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { data = [||]; len = 0; sorted = true }

let add t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let data = Array.make (if cap = 0 then 1024 else cap * 2) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len

let is_empty t = t.len = 0

(* Samples are plain ints, so equal samples cannot be told apart and any
   exact sort gives the same array: an LSD radix sort, one byte per pass.
   Flipping the sign bit maps signed order onto unsigned byte order, and a
   pass whose byte is the same in every sample is skipped, so non-negative
   samples below 2^24 (µs latencies, depths, sizes) take at most three
   passes. *)
let[@inline] byte x d = ((x lxor min_int) lsr (8 * d)) land 255

let radix_sort data len =
  let counts = Array.make (8 * 256) 0 in
  for i = 0 to len - 1 do
    let x = data.(i) in
    for d = 0 to 7 do
      let b = (d * 256) + byte x d in
      counts.(b) <- counts.(b) + 1
    done
  done;
  let src = ref data and dst = ref (Array.make len 0) in
  for d = 0 to 7 do
    let base = d * 256 in
    if counts.(base + byte !src.(0) d) < len then begin
      let sum = ref 0 in
      for b = base to base + 255 do
        let c = counts.(b) in
        counts.(b) <- !sum;
        sum := !sum + c
      done;
      let s = !src and o = !dst in
      for i = 0 to len - 1 do
        let x = s.(i) in
        let b = base + byte x d in
        o.(counts.(b)) <- x;
        counts.(b) <- counts.(b) + 1
      done;
      src := o;
      dst := s
    end
  done;
  if !src != data then Array.blit !src 0 data 0 len

let ensure_sorted t =
  if not t.sorted then begin
    if t.len > 1 then radix_sort t.data t.len;
    t.sorted <- true
  end

let mean t =
  if t.len = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.len - 1 do
      sum := !sum +. float_of_int t.data.(i)
    done;
    !sum /. float_of_int t.len
  end

let min t =
  if t.len = 0 then invalid_arg "Recorder.min: empty";
  ensure_sorted t;
  t.data.(0)

let max t =
  if t.len = 0 then invalid_arg "Recorder.max: empty";
  ensure_sorted t;
  t.data.(t.len - 1)

let percentile t p =
  if t.len = 0 then invalid_arg "Recorder.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Recorder.percentile: p out of range";
  ensure_sorted t;
  if t.len = 1 then float_of_int t.data.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then float_of_int t.data.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      ((1.0 -. frac) *. float_of_int t.data.(lo))
      +. (frac *. float_of_int t.data.(hi))
    end
  end

let percentile_ms t p = percentile t p /. 1000.0

(* Total variants for summary paths: an empty recorder (a run that produced
   no samples, e.g. all-faults chaos) reports [None] instead of raising. *)
let min_opt t = if t.len = 0 then None else Some (min t)

let max_opt t = if t.len = 0 then None else Some (max t)

let percentile_opt t p = if t.len = 0 then None else Some (percentile t p)

let percentile_ms_opt t p = if t.len = 0 then None else Some (percentile_ms t p)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let to_sorted_array t =
  ensure_sorted t;
  Array.sub t.data 0 t.len

let merge a b =
  let t = create () in
  for i = 0 to a.len - 1 do
    add t a.data.(i)
  done;
  for i = 0 to b.len - 1 do
    add t b.data.(i)
  done;
  t
