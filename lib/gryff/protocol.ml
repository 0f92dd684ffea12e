type dep = { d_key : int; d_value : int; d_cs : Carstamp.t }

type rmw_pending = {
  mutable p_local : Replica.instance option;  (* coordinator executed *)
  mutable p_acks : int;  (* remote replicas that applied the result *)
  p_needed : int;
  p_reply : Replica.instance -> unit;
}

type ctx = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  config : Config.t;
  replicas : Replica.t array;
  rmw_waiters : (Replica.instance_id, rmw_pending) Hashtbl.t;
  mutable n_reads : int;
  mutable n_read_second_round : int;
  mutable n_deps_created : int;
  mutable n_writes : int;
  mutable n_rmws : int;
  mutable n_rmw_slow : int;
  mutable retrans : Sim.Rpc.t option;
      (* per-request retransmission for the idempotent phases; [None] keeps
         the exact failure-free wire behavior *)
  mutable tracer : Obs.Trace.t;
  flow : Sim.Flow.t;  (* overload control — default-off *)
  mutable fanout : read_fanout;
}

and read_fanout = Fan_all | Fan_quorum | Hedged

let make_ctx engine net config =
  let replicas =
    Array.init config.Config.n_replicas (fun replica_id ->
        Replica.create engine config ~replica_id)
  in
  let ctx =
    {
      engine;
      net;
      config;
      replicas;
      rmw_waiters = Hashtbl.create 256;
      n_reads = 0;
      n_read_second_round = 0;
      n_deps_created = 0;
      n_writes = 0;
      n_rmws = 0;
      n_rmw_slow = 0;
      retrans = None;
      tracer = Obs.Trace.disabled;
      flow = Sim.Flow.create net;
      fanout = Fan_all;
    }
  in
  (* An rmw completes only once its result is applied at a quorum: the
     coordinator's own execution plus execution acks from other replicas —
     otherwise a subsequent read's quorum could miss a "completed" rmw. *)
  let maybe_reply inst_id (p : rmw_pending) =
    match p.p_local with
    | Some inst when p.p_acks >= p.p_needed ->
      Hashtbl.remove ctx.rmw_waiters inst_id;
      p.p_reply inst
    | Some _ | None -> ()
  in
  Array.iter
    (fun (r : Replica.t) ->
      r.Replica.executed_hook <-
        (fun inst ->
          let inst_id = inst.Replica.inst_id in
          let coord = fst inst_id in
          if coord = r.Replica.replica_id then (
            match Hashtbl.find_opt ctx.rmw_waiters inst_id with
            | Some p ->
              p.p_local <- Some inst;
              maybe_reply inst_id p
            | None -> ())
          else
            (* execution ack back to the coordinator *)
            let src = r.Replica.replica_id in
            Sim.Net.post ~bytes:32 ctx.net ~src ~dst:coord (fun env_idx ->
                Sim.Flow.ingress ctx.flow ctx.replicas.(coord).Replica.station
                  ~tracer:ctx.tracer ~src ~dst:coord env_idx (fun () ->
                    match Hashtbl.find_opt ctx.rmw_waiters inst_id with
                    | Some p ->
                      p.p_acks <- p.p_acks + 1;
                      maybe_reply inst_id p
                    | None -> ()))))
    replicas;
  ctx

(* Replica- and client-bound messages ride [Sim.Net.post]: with a batching
   policy armed, a client's quorum fan-out to one replica, the replica's
   replies, and write-back propagates coalesce per directed link into
   envelopes whose members amortize the replica's station cost. With
   batching off, [post] is [send] and behaviour is byte-identical. *)
let to_client ctx ~src ?(bytes = 64) ~dst handler =
  Sim.Net.post ~bytes ctx.net ~src ~dst (fun _env_idx -> handler ())

(* Internal replica-bound traffic: never refused, so it passes no
   [reject] to {!Sim.Flow.ingress}. *)
let to_replica ctx ~src replica_id handler =
  let r = ctx.replicas.(replica_id) in
  Sim.Net.post ctx.net ~src ~dst:replica_id (fun env_idx ->
      Sim.Flow.ingress ctx.flow r.Replica.station ~tracer:ctx.tracer ~src
        ~dst:replica_id env_idx (fun () -> handler r))

(* A quorum phase: what every request/reply leg of one fan-out shares.
   The op builds it once; a leg adds only its replica. Under
   retransmission the phase is each leg's {!Sim.Rpc} context. *)
type 'a phase = {
  ctx : ctx;
  src : int;  (* the client's site *)
  expires : int option;
  request : Replica.t -> 'a;  (* the replica-side handler *)
  reply : 'a -> unit;  (* the phase's quorum collector *)
}

(* One leg's request and its reply, delivered to [deliver]. Refusals
   re-enter through [reject], present only on legs that can be refused.
   The hops read the context from [ph], so they do not capture it too. *)
let post_leg ph i ?reject deliver =
  Sim.Net.post ph.ctx.net ~src:ph.src ~dst:i (fun env_idx ->
      let ctx = ph.ctx in
      Sim.Flow.ingress ctx.flow ctx.replicas.(i).Replica.station
        ~tracer:ctx.tracer ~src:ph.src ~dst:i ?expires:ph.expires ?reject
        env_idx (fun () ->
          let ctx = ph.ctx in
          let resp = ph.request ctx.replicas.(i) in
          Sim.Net.post ctx.net ~src:i ~dst:ph.src (fun _env_idx ->
              deliver resp)))

let refusable ph i =
  Sim.Flow.may_refuse ph.ctx.replicas.(i).Replica.station ~expires:ph.expires

(* A refusable leg. With admission control armed, a shed leg re-offers to
   the same replica after the server-suggested backoff (the quorum keeps
   forming from the others meanwhile), bounded by the retry budget and the
   resend cap; giving up just leaves this replica out of the quorum. An
   expired leg gives up outright — its deadline has passed. [retry] is
   the re-offer: it counts the leg's sends, the first one included, across
   NACK re-offers and Rpc re-attempts alike, and Flow caps the total at
   [Sim.Flow.max_sends]. *)
let refusable_leg ph i ~retry deliver =
  let rec send () = post_leg ph i ~reject deliver
  and reject = function
    | Sim.Flow.Expired -> ()
    | Sim.Flow.Pushback pb -> retry ~after_us:pb.retry_after_us send
  in
  send ()

(* A retransmitted leg's attempt, reply and failure: built once, shared by
   every leg of every phase. A NACK re-offer counts in the call's sends.
   Whether a leg can be refused is fixed once the flow is armed, before
   traffic, so each attempt may ask it again. *)
let leg_attempt c =
  let ph = Sim.Rpc.ctx c and i = Sim.Rpc.id c in
  if refusable ph i then
    refusable_leg ph i ~retry:(Sim.Rpc.resend c) (Sim.Rpc.ok c)
  else post_leg ph i (Sim.Rpc.ok c)

let leg_reply ph resp = ph.reply resp

let leg_fail _ = ()

(* One request/reply exchange with replica [i]. With retransmission armed
   ([retrans <> None]) the exchange rides an {!Sim.Rpc} call: a lost
   request or reply is re-sent after a deadline with capped backoff, so
   the phase survives up to f crashed replicas (the quorum collector only
   needs the live ones to answer). Only valid for idempotent handlers —
   base reads, carstamp queries and propagates are (carstamp max-merge
   makes re-applying a write a no-op); rmw pre-accepts are not and stay
   bare. Such a leg allocates the call record and its two closures; a
   bare leg allocates a send count and a [reject] only if it can be
   refused, and by default it cannot. *)
let exchange ph i =
  match ph.ctx.retrans with
  | Some rpc ->
    Sim.Rpc.call ~name:"rpc.exchange" ?expires:ph.expires rpc ph i
      ~attempt:leg_attempt ~on_reply:leg_reply ~on_fail:leg_fail
  | None ->
    if refusable ph i then
      refusable_leg ph i
        ~retry:(Sim.Flow.retry ph.ctx.flow ?expires:ph.expires ~sends:(ref 1))
        ph.reply
    else post_leg ph i ph.reply

(* Every replica, in replica-id order. *)
let fan_out ph =
  for i = 0 to Array.length ph.ctx.replicas - 1 do
    exchange ph i
  done

(* The replicas at ring positions [lo, hi): the client's own site is
   position 0, then come the next replica ids, wrapping. *)
let ring_out ph lo hi =
  let n = Array.length ph.ctx.replicas in
  for j = lo to hi - 1 do
    exchange ph ((ph.src + j) mod n)
  done

let enable_retrans ctx ~rng =
  let rpc =
    Sim.Rpc.create ctx.engine ~rng ~flow:ctx.flow ~timeout_us:300_000
      ~max_attempts:8 ()
  in
  Sim.Rpc.set_tracer rpc ctx.tracer;
  ctx.retrans <- Some rpc

let set_tracer ctx tracer =
  ctx.tracer <- tracer;
  Sim.Net.set_tracer ctx.net tracer;
  match ctx.retrans with
  | Some rpc -> Sim.Rpc.set_tracer rpc tracer
  | None -> ()

let apply_deps (r : Replica.t) deps =
  List.iter
    (fun { d_key; d_value; d_cs } -> Replica.apply r ~key:d_key ~value:d_value ~cs:d_cs)
    deps

(* Collect the first [quorum] replies; later ones are dropped. *)
let quorum_collector ~quorum k =
  let got = ref [] in
  let n = ref 0 in
  fun reply ->
    incr n;
    if !n <= quorum then begin
      got := reply :: !got;
      if !n = quorum then k !got
    end

(* Propagate (key, value, cs) to a quorum — a read's write-back phase, a
   write's second phase, or a fence. *)
let propagate ?expires ctx ~client_site ~key ~value ~cs k =
  let quorum = Config.quorum ctx.config in
  fan_out
    {
      ctx;
      src = client_site;
      expires;
      request = (fun r -> Replica.apply r ~key ~value ~cs);
      reply = quorum_collector ~quorum (fun _ -> k ());
    }

(* ------------------------------------------------------------------ *)
(* Reads (Algorithm 3 / 4)                                             *)
(* ------------------------------------------------------------------ *)

type read_result = {
  r_value : int option;
  r_cs : Carstamp.t;
  r_rounds : int;
  r_dep : dep option;
}

let read ?deadline_us ctx ~client_site ~cid:_ ~deps ~key k =
  ctx.n_reads <- ctx.n_reads + 1;
  let quorum = Config.quorum ctx.config in
  let expires = Sim.Flow.expires ctx.flow deadline_us in
  let complete = ref false in
  let hedge_won = ref false in
  let process replies =
    complete := true;
    if !hedge_won then Sim.Flow.hedge_won ctx.flow;
    let best_v, best_cs =
      match replies with
      | first :: rest ->
        List.fold_left
          (fun (bv, bc) (v, cs) -> if Carstamp.(cs > bc) then (v, cs) else (bv, bc))
          first rest
      | [] -> assert false (* quorum_collector delivers exactly [quorum] replies *)
    in
    let all_equal = List.for_all (fun (_, cs) -> Carstamp.equal cs best_cs) replies in
    if all_equal then
      (* The chosen carstamp is already at a quorum: one round in both
         modes (Gryff's fast-path read optimization). *)
      k { r_value = best_v; r_cs = best_cs; r_rounds = 1; r_dep = None }
    else begin
      match (ctx.config.Config.mode, best_v) with
      | Config.Lin, Some v ->
        (* Linearizability requires the write-back phase before returning. *)
        ctx.n_read_second_round <- ctx.n_read_second_round + 1;
        let tr = ctx.tracer in
        let sp =
          if Obs.Trace.enabled tr then
            Obs.Trace.begin_span ~site:client_site tr ~kind:Obs.Trace.Phase
              ~name:"gryff.read.round2" ~ts:(Sim.Engine.now ctx.engine)
          else Obs.Trace.none
        in
        Obs.Trace.with_current tr sp (fun () ->
            propagate ?expires ctx ~client_site ~key ~value:v ~cs:best_cs
              (fun () ->
                Obs.Trace.end_span tr sp ~ts:(Sim.Engine.now ctx.engine);
                k { r_value = best_v; r_cs = best_cs; r_rounds = 2; r_dep = None }))
      | Config.Lin, None ->
        k { r_value = None; r_cs = best_cs; r_rounds = 1; r_dep = None }
      | Config.Rsc, Some v ->
        (* RSC: defer the write-back by piggybacking on the next op. *)
        ctx.n_deps_created <- ctx.n_deps_created + 1;
        let tr = ctx.tracer in
        if Obs.Trace.enabled tr then
          Obs.Trace.instant ~site:client_site tr ~kind:Obs.Trace.Phase
            ~name:"gryff.read.defer" ~ts:(Sim.Engine.now ctx.engine);
        k
          {
            r_value = best_v;
            r_cs = best_cs;
            r_rounds = 1;
            r_dep = Some { d_key = key; d_value = v; d_cs = best_cs };
          }
      | Config.Rsc, None ->
        k { r_value = None; r_cs = best_cs; r_rounds = 1; r_dep = None }
    end
  in
  let ph =
    {
      ctx;
      src = client_site;
      expires;
      request =
        (fun r ->
          apply_deps r deps;
          Replica.get r key);
      reply = quorum_collector ~quorum process;
    }
  in
  (* Fan-out policy. [Fan_all] (default, the historical behavior) asks every
     replica and keeps the first quorum of replies — maximal implicit
     hedging at maximal message cost. [Fan_quorum] asks only a bare quorum
     chosen by ring locality from the client's site — cheapest, but one
     gray-failed member drags the whole read to its speed. [Hedged] starts
     from the bare quorum and, if the quorum has not completed after
     [hedge_us] (sized to a healthy-run latency percentile), fans out to
     the remaining replicas and lets the first quorum win — the classic
     tail-tolerant middle ground. *)
  let n = Array.length ctx.replicas in
  match ctx.fanout with
  | Fan_all ->
    (* Replica-id order, NOT ring order: this is the historical behavior
       and seeded schedules are golden-digested against it. *)
    fan_out ph
  | Fan_quorum -> ring_out ph 0 quorum
  | Hedged ->
    ring_out ph 0 quorum;
    if quorum < n then
      Sim.Engine.schedule ~kind:"txn.hedge" ctx.engine
        ~after:(max 1 (Sim.Flow.hedge_us ctx.flow))
        (fun () ->
          if not !complete then begin
            Sim.Flow.hedge_issued ctx.flow;
            let hedge =
              {
                ph with
                reply =
                  (fun resp ->
                    if not !complete then hedge_won := true;
                    ph.reply resp);
              }
            in
            ring_out hedge quorum n
          end)

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

type write_result = { w_cs : Carstamp.t }

let write ?(on_apply = fun (_ : Carstamp.t) -> ()) ?deadline_us ctx ~client_site
    ~cid ~deps ~key ~value k =
  ctx.n_writes <- ctx.n_writes + 1;
  let quorum = Config.quorum ctx.config in
  let expires = Sim.Flow.expires ctx.flow deadline_us in
  let phase2 base_cs =
    let cs = Carstamp.for_write ~base:base_cs ~cid in
    (* The value is about to reach replicas: from here on the write can be
       observed even if the client never hears the acks, so chaos audits
       record the chosen carstamp for post-hoc history accounting. *)
    on_apply cs;
    propagate ?expires ctx ~client_site ~key ~value ~cs (fun () ->
        k { w_cs = cs })
  in
  let process replies =
    phase2 (List.fold_left (fun acc cs -> Carstamp.max acc cs) Carstamp.zero replies)
  in
  fan_out
    {
      ctx;
      src = client_site;
      expires;
      request =
        (fun r ->
          apply_deps r deps;
          snd (Replica.get r key));
      reply = quorum_collector ~quorum process;
    }

(* ------------------------------------------------------------------ *)
(* Read-modify-writes (Algorithm 5)                                    *)
(* ------------------------------------------------------------------ *)

type rmw_result = {
  m_observed : int option;
  m_value : int;
  m_cs : Carstamp.t;
  m_slow : bool;
}

let same_attrs (seq, deps, base) (seq', deps', base') =
  seq = seq'
  && List.sort compare deps = List.sort compare deps'
  && Carstamp.equal (snd base) (snd base')

let rmw ctx ~client_site ~cid:_ ~deps ~key ~f k =
  ctx.n_rmws <- ctx.n_rmws + 1;
  let coord_id = client_site in
  (* coordinate at the local replica *)
  to_replica ctx ~src:client_site coord_id (fun coord ->
      apply_deps coord deps;
      let inst = Replica.fresh_instance coord ~key ~f in
      let inst_id = inst.Replica.inst_id in
      let orig = (inst.Replica.i_seq, inst.Replica.i_deps, inst.Replica.i_base) in
      let commit ~slow (seq, deps, base) =
        if slow then begin
          ctx.n_rmw_slow <- ctx.n_rmw_slow + 1;
          let tr = ctx.tracer in
          if Obs.Trace.enabled tr then
            Obs.Trace.instant ~site:coord_id tr ~kind:Obs.Trace.Phase
              ~name:"gryff.rmw.slow" ~ts:(Sim.Engine.now ctx.engine)
        end;
        let reply (i : Replica.instance) =
          match i.Replica.i_result with
          | Some (v, cs) ->
            to_client ctx ~src:coord_id ~dst:client_site (fun () ->
                k
                  {
                    m_observed = i.Replica.i_observed;
                    m_value = v;
                    m_cs = cs;
                    m_slow = slow;
                  })
          | None -> assert false
        in
        Hashtbl.replace ctx.rmw_waiters inst_id
          {
            p_local = None;
            p_acks = 0;
            p_needed = Config.quorum ctx.config - 1;
            p_reply = reply;
          };
        Array.iteri
          (fun i _ ->
            if i <> coord_id then
              to_replica ctx ~src:coord_id i (fun r ->
                  Replica.record_decision r ~inst_id ~key ~f ~seq ~deps ~base
                    Replica.Committed))
          ctx.replicas;
        Replica.record_decision coord ~inst_id ~key ~f ~seq ~deps ~base
          Replica.Committed
      in
      let slow_path (seq, deps, base) =
        (* Accept round to a majority with the merged attributes. *)
        let needed = Config.quorum ctx.config - 1 in
        let on_ack = quorum_collector ~quorum:needed (fun _ -> commit ~slow:true (seq, deps, base)) in
        Array.iteri
          (fun i _ ->
            if i <> coord_id then
              to_replica ctx ~src:coord_id i (fun r ->
                  Replica.record_decision r ~inst_id ~key ~f ~seq ~deps ~base
                    Replica.Accepted;
                  to_client ctx ~src:i ~dst:coord_id (fun () -> on_ack ())))
          ctx.replicas
      in
      let needed = Config.fast_quorum ctx.config - 1 in
      let process replies =
        if List.for_all (fun attrs -> same_attrs attrs orig) replies then
          commit ~slow:false orig
        else begin
          let seq, deps, base =
            List.fold_left
              (fun (s, d, b) (s', d', b') ->
                ( max s s',
                  List.sort_uniq compare (d @ d'),
                  if Carstamp.(snd b' > snd b) then b' else b ))
              orig replies
          in
          slow_path (seq, deps, base)
        end
      in
      let on_reply = quorum_collector ~quorum:needed process in
      Array.iteri
        (fun i _ ->
          if i <> coord_id then
            to_replica ctx ~src:coord_id i (fun r ->
                apply_deps r deps;
                let attrs =
                  Replica.merge_preaccept r ~inst_id ~key ~f
                    ~seq:inst.Replica.i_seq ~deps:inst.Replica.i_deps
                    ~base:inst.Replica.i_base
                in
                to_client ctx ~src:i ~dst:coord_id (fun () -> on_reply attrs)))
        ctx.replicas)

let rec fence ctx ~client_site ~deps k =
  match deps with
  | [] -> k ()
  | { d_key; d_value; d_cs } :: rest ->
    propagate ctx ~client_site ~key:d_key ~value:d_value ~cs:d_cs (fun () ->
        fence ctx ~client_site ~deps:rest k)

(* ------------------------------------------------------------------ *)
(* Overload & gray-failure controls                                    *)
(* ------------------------------------------------------------------ *)

let stations ctx =
  Array.to_list (Array.map (fun r -> r.Replica.station) ctx.replicas)

(* Gray failure: the replica at [site] serves [factor]x slower (sites and
   replicas are 1:1 in this deployment model). *)
let set_site_slowdown ctx ~site ~factor =
  if site >= 0 && site < Array.length ctx.replicas then
    Sim.Station.set_slowdown ctx.replicas.(site).Replica.station factor

let clear_slowdowns ctx =
  Array.iter (fun r -> Sim.Station.set_slowdown r.Replica.station 1) ctx.replicas

let set_read_fanout ctx fanout = ctx.fanout <- fanout
