(* Sim.Rpc: a differential test against the helper before calls took a
   caller context (test/rpc_ref.ml), and its allocation per call. *)

let check = Alcotest.check

let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Differential test against Rpc_ref                                   *)
(* ------------------------------------------------------------------ *)

(* How one attempt of a call is served. Replies carry (call, attempt,
   tag), so the result names the reply that won. *)
type action =
  | Lose  (* the request or its reply is lost *)
  | Reply of int  (* one reply, this many us later (0: inside the attempt) *)
  | Dup of int * int  (* the request is duplicated: two replies *)
  | Nack of int * int
      (* refused: re-offered after the first delay (if Flow lets it), then
         answered the second delay later; without a flow it is lost *)

type spec = {
  start : int;  (* the call starts this many us into the run *)
  expires : int option;  (* relative to [start] *)
  actions : action array;  (* by attempt; later attempts are lost *)
}

type case = {
  flow : (int * int) option option;
      (* no flow, or a flow with an optional (capacity, refill period)
         retry budget *)
  timeout_us : int;
  max_backoff_us : int;
  max_attempts : int;
  calls : spec list;
}

let pp_action = function
  | Lose -> "lose"
  | Reply d -> Printf.sprintf "reply %d" d
  | Dup (a, b) -> Printf.sprintf "dup %d %d" a b
  | Nack (a, d) -> Printf.sprintf "nack %d %d" a d

let pp_case c =
  let b = Buffer.create 256 in
  Printf.bprintf b "flow=%s timeout=%d max_backoff=%d max_attempts=%d\n"
    (match c.flow with
    | None -> "none"
    | Some None -> "no budget"
    | Some (Some (cap, period)) -> Printf.sprintf "budget %d/%d" cap period)
    c.timeout_us c.max_backoff_us c.max_attempts;
  List.iteri
    (fun k s ->
      Printf.bprintf b "call %d at %d expires %s: [%s]\n" k s.start
        (match s.expires with None -> "never" | Some e -> string_of_int e)
        (String.concat "; " (Array.to_list (Array.map pp_action s.actions))))
    c.calls;
  Buffer.contents b

let gen_case =
  let open QCheck.Gen in
  let delay = oneof [ return 0; int_range 1 1_500; int_range 1_500 8_000 ] in
  let action =
    frequency
      [
        (3, return Lose);
        (3, map (fun d -> Reply d) delay);
        (1, map2 (fun a b -> Dup (a, b)) delay delay);
        (2, map2 (fun a d -> Nack (a, d)) (int_range 0 3_000) delay);
      ]
  in
  let spec =
    map3
      (fun start expires actions -> { start; expires; actions })
      (int_range 0 5_000)
      (opt (int_range 0 20_000))
      (array_size (int_range 0 6) action)
  in
  let budget = pair (int_range 1 4) (int_range 500 10_000) in
  map3
    (fun flow (timeout_us, backoff_mult, max_attempts) calls ->
      {
        flow;
        timeout_us;
        max_backoff_us = timeout_us * backoff_mult;
        max_attempts;
        calls;
      })
    (opt (opt budget))
    (triple (int_range 100 2_000) (int_range 1 8) (int_range 1 10))
    (list_size (int_range 1 4) spec)

type outcome = {
  results : (int * (int * int * int) option * int) list;
      (* (call, winning reply or failure, sim time), in settle order *)
  calls : int;
  retries : int;
  exhausted : int;
  executed : int;
  pending : int;
  abandoned : int;
  taken : int;
  denied : int;
  next_draw : int;  (* the helper's stream after the run *)
}

let pp_outcome o =
  String.concat "\n"
    (List.map
       (fun (k, r, t) ->
         match r with
         | Some (_, n, tag) ->
           Printf.sprintf "t=%d call %d: reply (attempt %d, tag %d)" t k n tag
         | None -> Printf.sprintf "t=%d call %d: failed" t k)
       o.results)
  ^ Printf.sprintf
      "\ncalls=%d retries=%d exhausted=%d executed=%d pending=%d \
       abandoned=%d taken=%d denied=%d next_draw=%d"
      o.calls o.retries o.exhausted o.executed o.pending o.abandoned o.taken
      o.denied o.next_draw

(* One implementation under test: [begin_call k spec ~expires] starts call
   [k]; [counts ()] is (calls, retries, exhausted). *)
type helper = {
  begin_call : int -> spec -> expires:int option -> unit;
  counts : unit -> int * int * int;
}

(* [serve k spec n ok reoffer] serves attempt [n] of call [k]; [reoffer]
   is the implementation's NACK re-offer. *)
type serve =
  int -> spec -> int -> (int * int * int -> unit) ->
  (after_us:int -> (unit -> unit) -> unit) -> unit

let new_helper e rng flow case ~(serve : serve) ~settle =
  let rpc =
    Sim.Rpc.create e ~rng ?flow ~timeout_us:case.timeout_us
      ~max_backoff_us:case.max_backoff_us ~max_attempts:case.max_attempts ()
  in
  let attempt c =
    serve (Sim.Rpc.id c) (Sim.Rpc.ctx c) (Sim.Rpc.attempt c) (Sim.Rpc.ok c)
      (Sim.Rpc.resend c)
  in
  {
    begin_call =
      (fun k spec ~expires ->
        Sim.Rpc.call ?expires rpc spec k ~attempt
          ~on_reply:(fun _ v -> settle k (Some v))
          ~on_fail:(fun _ -> settle k None));
    counts =
      (fun () -> (Sim.Rpc.calls rpc, Sim.Rpc.retries rpc, Sim.Rpc.exhausted rpc));
  }

(* The reference as its callers drove it: a call on a helper with a flow
   counts its sends in a ref that its NACK re-offers share. *)
let ref_helper e rng flow case ~(serve : serve) ~settle =
  let rpc =
    Rpc_ref.create e ~rng ?flow ~timeout_us:case.timeout_us
      ~max_backoff_us:case.max_backoff_us ~max_attempts:case.max_attempts ()
  in
  {
    begin_call =
      (fun k spec ~expires ->
        let sends = Option.map (fun _ -> ref 1) flow in
        let reoffer ~after_us k' =
          match flow with
          | Some f -> Sim.Flow.retry f ?expires ?sends ~after_us k'
          | None -> ()
        in
        Rpc_ref.call ?expires ?sends rpc
          ~attempt:(fun ~attempt ~ok -> serve k spec attempt ok reoffer)
          ~on_result:(settle k));
    counts =
      (fun () -> (Rpc_ref.calls rpc, Rpc_ref.retries rpc, Rpc_ref.exhausted rpc));
  }

let drive make case =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.make 11 in
  let budget =
    match case.flow with
    | Some (Some (capacity, refill_period_us)) ->
      Some (Sim.Flow.Budget.create e ~capacity ~refill_period_us)
    | Some None | None -> None
  in
  let flow =
    Option.map
      (fun _ ->
        let net =
          Sim.Net.create e ~rng:(Sim.Rng.make 0) ~rtt_ms:[| [| 0.1 |] |] ()
        in
        let f = Sim.Flow.create net in
        Sim.Flow.arm f ~stations:[] ~admission:None ~drop_expired:true
          ~hedge_us:0 ~budget;
        f)
      case.flow
  in
  let results = ref [] in
  let settle k r = results := (k, r, Sim.Engine.now e) :: !results in
  let serve k spec n ok reoffer =
    let reply tag d =
      let v = (k, n, tag) in
      if d = 0 then ok v else Sim.Engine.schedule e ~after:d (fun () -> ok v)
    in
    match
      if n <= Array.length spec.actions then spec.actions.(n - 1) else Lose
    with
    | Lose -> ()
    | Reply d -> reply 0 d
    | Dup (d1, d2) ->
      reply 0 d1;
      reply 1 d2
    | Nack (a, d) ->
      if Option.is_some flow then reoffer ~after_us:a (fun () -> reply 2 d)
  in
  let h = make e rng flow case ~serve ~settle in
  List.iteri
    (fun k spec ->
      Sim.Engine.schedule e ~after:spec.start (fun () ->
          let expires =
            Option.map (fun x -> Sim.Engine.now e + x) spec.expires
          in
          h.begin_call k spec ~expires))
    case.calls;
  Sim.Engine.run e;
  let calls, retries, exhausted = h.counts () in
  {
    results = List.rev !results;
    calls;
    retries;
    exhausted;
    executed = Sim.Engine.executed e;
    pending = Sim.Engine.pending e;
    abandoned =
      (match flow with
      | Some f -> (Sim.Flow.stats f).Sim.Flow.abandoned
      | None -> 0);
    taken = (match budget with Some b -> Sim.Flow.Budget.taken b | None -> 0);
    denied = (match budget with Some b -> Sim.Flow.Budget.denied b | None -> 0);
    next_draw = Sim.Rng.int rng 1_000_000;
  }

let prop_matches_reference =
  QCheck.Test.make ~name:"matches the reference helper" ~count:2000
    (QCheck.make ~print:pp_case gen_case)
    (fun case ->
      let got = drive new_helper case and want = drive ref_helper case in
      got = want
      || QCheck.Test.fail_reportf "reference:\n%s\n\nhelper:\n%s"
           (pp_outcome want) (pp_outcome got))

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* A call's attempt, reply and failure functions are built once, here at
   the top level, and its context is a value the caller already holds. *)
let answer_from = ref 1

let attempt_answering c =
  if Sim.Rpc.attempt c >= !answer_from then Sim.Rpc.ok c (Sim.Rpc.id c)

let answered = ref 0

let count_reply (_ : unit) (_ : int) = incr answered

let no_fail (_ : unit) = ()

(* Minor words per call answered inside its attempt [from] (the earlier
   attempts are lost): the call record and its reply and timeout
   closures, 23 words, and nothing per attempt, so a retransmitted call
   costs what a call answered at once does. Calls run in rounds of 1000
   so the engine's arrays reach their final size in a warm-up round. *)
let rpc_words_per_call ~from =
  let e = Sim.Engine.create () in
  let rpc =
    Sim.Rpc.create e ~rng:(Sim.Rng.make 3) ~timeout_us:1_000
      ~max_backoff_us:4_000 ~max_attempts:4 ()
  in
  answer_from := from;
  answered := 0;
  let round () =
    for i = 1 to 1000 do
      Sim.Rpc.call rpc () i ~attempt:attempt_answering ~on_reply:count_reply
        ~on_fail:no_fail
    done;
    Sim.Engine.run e
  in
  round ();
  let n_rounds = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to n_rounds do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  check int "all answered" ((n_rounds + 1) * 1000) !answered;
  check int "retries" ((n_rounds + 1) * 1000 * (from - 1)) (Sim.Rpc.retries rpc);
  words /. float_of_int (n_rounds * 1000)

let test_allocation_per_call () =
  check (Alcotest.float 0.0) "answered at once: minor words per call" 23.0
    (rpc_words_per_call ~from:1);
  check (Alcotest.float 0.0)
    "answered on the third attempt: minor words per call" 23.0
    (rpc_words_per_call ~from:3)

let suites =
  [
    ( "sim.rpc",
      [
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 41 |])
          prop_matches_reference;
        Alcotest.test_case "minor words per call" `Quick
          test_allocation_per_call;
      ] );
  ]
