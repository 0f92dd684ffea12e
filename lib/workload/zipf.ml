(* Rejection-inversion sampling for the Zipf distribution, after Hörmann &
   Derflinger, "Rejection-inversion to generate variates from monotone
   discrete distributions" (1996). Mirrors the structure of Apache Commons'
   RejectionInversionZipfSampler. *)

type t = {
  rng : Sim.Rng.t;
  n : int;
  theta : float;
  h_integral_x1 : float;
  h_integral_n : float;
  s : float;
}

(* The helpers are inlined into [sample], so a key draw does not box its
   floats on the way through them. *)

(* (log1p x) / x, stable near 0. *)
let[@inline] helper1 x =
  if Float.abs x > 1e-8 then Float.log1p x /. x
  else 1.0 -. (x /. 2.0) +. (x *. x /. 3.0) -. (x *. x *. x /. 4.0)

(* (expm1 x) / x, stable near 0. *)
let[@inline] helper2 x =
  if Float.abs x > 1e-8 then Float.expm1 x /. x
  else 1.0 +. (x /. 2.0) +. (x *. x /. 6.0) +. (x *. x *. x /. 24.0)

let[@inline] h_integral ~theta x =
  let log_x = log x in
  helper2 ((1.0 -. theta) *. log_x) *. log_x

let[@inline] h ~theta x = exp (-.theta *. log x)

let[@inline] h_integral_inverse ~theta x =
  let t = x *. (1.0 -. theta) in
  let t = if t < -1.0 then -1.0 else t in
  exp (helper1 t *. x)

let create ~rng ~n ~theta =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  if theta < 0.0 then invalid_arg "Zipf.create: negative theta";
  {
    rng;
    n;
    theta;
    h_integral_x1 = h_integral ~theta 1.5 -. 1.0;
    h_integral_n = h_integral ~theta (float_of_int n +. 0.5);
    s = 2.0 -. h_integral_inverse ~theta (h_integral ~theta 2.5 -. h ~theta 2.0);
  }

let sample t =
  if t.n = 1 then 0
  else begin
    let theta = t.theta in
    let rec loop () =
      let u =
        t.h_integral_n
        +. (Sim.Rng.uniform t.rng *. (t.h_integral_x1 -. t.h_integral_n))
      in
      let x = h_integral_inverse ~theta u in
      let k =
        let k = int_of_float (x +. 0.5) in
        if k < 1 then 1 else if k > t.n then t.n else k
      in
      if
        float_of_int k -. x <= t.s
        || u >= h_integral ~theta (float_of_int k +. 0.5) -. h ~theta (float_of_int k)
      then k - 1
      else loop ()
    in
    loop ()
  end

let n t = t.n

let theta t = t.theta
