type t = Random.State.t

let make seed = Random.State.make [| seed; 0x5f5e_1007; seed lxor 0x2545_f491 |]

let split t = Random.State.split t

let int t n = Random.State.int t n

(* [Random.State.float t x] is [x] times the top 53 bits of the next 64-bit
   draw, scaled by 2^-53 and drawn again while zero. Computed here, from the
   same draws, the value is identical, and [uniform] is inlined into
   [float], [bool] and [exponential], so the draw is not boxed on its way
   to them: [bool] and [jittered] allocate nothing and [float] only its
   result. Only the
   redraw, which a zero draw needs once in 2^53 calls, returns a boxed
   float. *)
let rec redraw t =
  let n = Int64.shift_right_logical (Random.State.bits64 t) 11 in
  if Int64.equal n 0L then redraw t else Int64.to_float n *. 0x1.p-53

let[@inline] uniform t =
  let n = Int64.shift_right_logical (Random.State.bits64 t) 11 in
  if Int64.equal n 0L then redraw t else Int64.to_float n *. 0x1.p-53

let float t x = uniform t *. x

(* [float t jitter] spelt out, so the draw stays unboxed. *)
let jittered t base jitter =
  int_of_float (float_of_int base *. (1.0 +. (uniform t *. jitter)))

let bool t p = uniform t < p

let exponential t ~mean =
  (* Inverse-CDF sampling; guard against log 0. *)
  let u = 1.0 -. uniform t in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
