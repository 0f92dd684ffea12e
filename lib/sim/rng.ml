type t = Random.State.t

let make seed = Random.State.make [| seed; 0x5f5e_1007; seed lxor 0x2545_f491 |]

let split t = Random.State.split t

let int t n = Random.State.int t n

let uniform t = Random.State.float t 1.0

let float t x = Random.State.float t x

let bool t p = Random.State.float t 1.0 < p

let exponential t ~mean =
  (* Inverse-CDF sampling; guard against log 0. *)
  let u = 1.0 -. Random.State.float t 1.0 in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
