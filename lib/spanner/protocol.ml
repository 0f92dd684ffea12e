type coord_state = {
  mutable cs_expected : int option;  (* participant votes expected *)
  mutable cs_votes : int;
  mutable cs_max_tp : int;
  mutable cs_max_tee : int;
  mutable cs_abort : bool;
  mutable cs_local_ready : bool;  (* coordinator's own locks + prepare done *)
  mutable cs_decided : bool;
  mutable cs_client : (Types.outcome * int) -> unit;  (* outcome, max_tee *)
  mutable cs_participants : int list;
  mutable cs_coord : int;  (* coordinator shard id *)
  mutable cs_start_latest : int;
  mutable cs_vote_views : (int * int) list;  (* (shard, group view) at vote *)
  mutable cs_settled : bool;  (* outcome durable / fully aborted *)
}

type migration_stats = {
  mutable started : int;
  mutable completed : int;
  mutable failed : int;
  mutable source_retries : int;
  mutable keys_moved : int;  (* keys shipped, counting re-ships *)
  mutable fence_hold_us : int;
  mutable max_fence_hold_us : int;
}

type ctx = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  tt : Sim.Truetime.t;
  config : Config.t;
  txns : Types.table;
  shards : Shard.t array;
  coord_states : coord_state Sim.Int_table.t;
  estimate : client_site:int -> participants:int list -> int * int;
      (* [Config.estimator config], staged once *)
  by_shard : (int, int list) Hashtbl.t;
      (* [group_by_shard]'s scratch table, emptied on every call. A stdlib
         table: its fold order is the order of the returned groups, which
         sets the send order and breaks coordinator ties. *)
  mutable n_rw_committed : int;
  mutable n_rw_aborted_attempts : int;
  mutable n_ro : int;
  mutable n_ro_slow : int;
  mutable failover : bool;
  mutable rpc : Sim.Rpc.t option;  (* terminate / status retransmission *)
  mutable n_terminates : int;
  mutable n_terminate_commits : int;
  mutable n_in_doubt_resolved : int;
  mutable tracer : Obs.Trace.t;
  directory : Place.Directory.t;  (* authoritative key -> shard ownership *)
  place_stats : migration_stats;
  mutable n_redirects : int;  (* ops bounced off a non-owning shard *)
  mutable n_fence_blocked : int;  (* lock acquisitions refused by a fence *)
  fence_bounced : unit Sim.Int_table.t;
      (* attempts refused by a fence, marked shard-side and consumed by the
         client's retry — stands in for a "fenced" error code on the abort
         reply. A fence holds for the drain + barrier (seconds), so these
         retries must back off far beyond the wound-wait cadence: bounced
         sessions re-reading hot unfenced keys at retry speed hold a rolling
         stream of old-priority read locks that can starve the very writers
         the drain is waiting on. *)
  flow : Sim.Flow.t;  (* overload control — default-off *)
}

(* Deliver a message to a shard leader: network hop + leader CPU. The
   leader site is read at send time, so clients rediscover a moved leader
   on their next send (a directory-service stand-in). With failover armed,
   a request is dropped at delivery unless the target site is still the
   serving leader — messages into a crashed or deposed leader vanish, and
   the sender's deadline machinery re-routes. *)
(* All shard-bound and client-bound traffic goes through [Sim.Net.post], so
   with a batching policy installed the whole 2PC data plane coalesces
   per directed link: prepare/commit requests batch on the way in,
   participant votes batch toward the coordinator, and a coordinator's
   outcome broadcasts share envelopes with the prepare traffic already
   flowing to each participant — the commit decision piggybacks on the
   link's next frame instead of paying its own. Members of one envelope
   amortize the destination leader's station cost (see [Sim.Flow.ingress]).
   With batching off, [post] is [send] — byte-identical to the unbatched
   protocol. *)
(* Deliver a reply to a client (client CPUs are not the modelled bottleneck). *)
let to_client ctx ~src ?(bytes = 96) ~dst handler =
  Sim.Net.post ~bytes ctx.net ~src ~dst (fun _env_idx -> handler ())

(* [expires] and [reject] pass through to {!Sim.Flow.ingress}: [reject] is
   supplied only on client-facing entry points (the RW read phase and RO
   shard reads), so internal 2PC traffic is never shed. *)
let to_shard ctx ~src ?(bytes = 96) ?expires ?reject shard_id handler =
  let shard = ctx.shards.(shard_id) in
  let dst = shard.Shard.leader_site in
  Sim.Net.post ~bytes ctx.net ~src ~dst (fun env_idx ->
      if
        (not ctx.failover)
        || (dst = shard.Shard.leader_site
            && (not (Sim.Net.is_down ctx.net dst))
            && Replication.Group.serving shard.Shard.repl)
      then
        Sim.Flow.ingress ctx.flow shard.Shard.station ~tracer:ctx.tracer ~src
          ~dst ?expires ?reject env_idx (fun () -> handler shard))

(* Authoritative ownership (the directory's current epoch). Clients route
   through their cached [?view] instead and get bounced + refreshed when it
   is stale; the owning shard's own check below is what makes a stale route
   harmless. *)
let shard_of_key ctx key = Place.Directory.owner ctx.directory key

let owns ctx (shard : Shard.t) key =
  Place.Directory.owner ctx.directory key = shard.Shard.shard_id

let route ?view ctx key =
  match view with
  | Some v -> Place.Directory.view_owner v key
  | None -> shard_of_key ctx key

let refresh_view = function Some v -> Place.Directory.refresh v | None -> ()

(* [reset] takes the table back to its 16 buckets, so every call folds in
   the order a fresh table would. *)
let group_by_shard ?view ctx keys =
  let tbl = ctx.by_shard in
  Hashtbl.reset tbl;
  List.iter
    (fun key ->
      let s = route ?view ctx key in
      let prev = try Hashtbl.find tbl s with Not_found -> [] in
      Hashtbl.replace tbl s (key :: prev))
    keys;
  Hashtbl.fold (fun s keys acc -> (s, keys) :: acc) tbl []

(* Wait until [ts] is definitely past: TT.now.earliest > ts. The sleep
   length is an estimate from the current ε, so re-check on wake: if ε was
   inflated while we slept, sleeping the stale amount would cut commit wait
   short and break the external-consistency invariant. *)
let rec wait_truetime ctx ts k =
  let iv = Sim.Truetime.now ctx.tt in
  if ts < iv.Sim.Truetime.earliest then k ()
  else
    let after =
      max 1 (ts + Sim.Truetime.epsilon ctx.tt - Sim.Engine.now ctx.engine + 1)
    in
    Sim.Engine.schedule ~kind:"tt.wait" ctx.engine ~after (fun () ->
        wait_truetime ctx ts k)

(* ------------------------------------------------------------------ *)
(* Read-write transactions: 2PL + 2PC with timestamps and commit wait  *)
(* ------------------------------------------------------------------ *)

type rw_result = {
  rw_commit_ts : int;
  rw_txn_id : int;
  rw_reads : (int * int option) list;
}

let coord_state ctx txn =
  match Sim.Int_table.find ctx.coord_states txn with
  | cs -> cs
  | exception Not_found ->
    let cs =
      {
        cs_expected = None;
        cs_votes = 0;
        cs_max_tp = 0;
        cs_max_tee = 0;
        cs_abort = false;
        cs_local_ready = false;
        cs_decided = false;
        cs_client = (fun _ -> ());
        cs_participants = [];
        cs_coord = -1;
        cs_start_latest = 0;
        cs_vote_views = [];
        cs_settled = false;
      }
    in
    Sim.Int_table.replace ctx.coord_states txn cs;
    cs

(* Drop the 2PC state once no more messages can reference it. With failover
   armed, a decided-commit entry must additionally survive until its commit
   record is durable (cs_settled) — otherwise a terminate query arriving in
   that window would find neither the state nor a decided outcome and
   force-abort a transaction that is about to commit. *)
let coord_gc ctx txn cs =
  match cs.cs_expected with
  | Some e
    when cs.cs_decided
         && cs.cs_votes >= e
         && (cs.cs_settled || not ctx.failover) ->
    Sim.Int_table.remove ctx.coord_states txn
  | Some _ | None -> ()

(* Acquire write locks for [keys] one at a time (CPS). *)
let rec acquire_writes shard ~txn ~priority keys ~blocked k =
  match keys with
  | [] -> k (Ok blocked)
  | key :: rest ->
    Locks.acquire_write shard.Shard.locks ~key ~txn ~priority (function
      | Locks.Aborted -> k (Error ())
      | Locks.Granted { blocked_us } ->
        acquire_writes shard ~txn ~priority rest ~blocked:(blocked + blocked_us) k)

(* Deliver a 2PC outcome at a shard. Failure-free mode applies it directly
   (the pre-failover behavior). With failover armed, a commit is forced to
   the shard's replicated log before its side effects — locks are held
   until the record is durable, which also preserves the per-key commit
   order the monotonicity invariant needs — and every outcome leaves a
   tombstone in the decided table for dedup and status queries. *)
let release_at_shard ctx shard ~txn outcome =
  if not ctx.failover then begin
    Shard.resolve_prepared shard ~txn outcome;
    Locks.release_all shard.Shard.locks ~txn
  end
  else
    match outcome with
    | Types.Aborted ->
      if Shard.decided shard txn = None then
        Shard.set_decided shard ~txn Types.Aborted ~max_tee:0;
      Shard.resolve_prepared shard ~txn outcome;
      Locks.release_all shard.Shard.locks ~txn
    | Types.Committed _ ->
      if Shard.decided shard txn <> None then begin
        (* Already durable here (or replayed by a new leader): just settle
           whatever volatile state remains. *)
        Shard.resolve_prepared shard ~txn outcome;
        Locks.release_all shard.Shard.locks ~txn
      end
      else begin
        let writes =
          match Shard.prepared shard txn with
          | Some p -> p.Shard.p_writes
          | None -> []
        in
        Shard.set_decided shard ~txn outcome ~max_tee:0;
        Replication.Group.replicate shard.Shard.repl
          (Types.Routcome
             { r_txn = txn; r_out = outcome; r_writes = writes; r_max_tee = 0 })
          (fun () ->
            Shard.resolve_prepared shard ~txn outcome;
            Locks.release_all shard.Shard.locks ~txn)
      end

(* Non-forcing outcome lookup at the coordinator, for participants
   resolving in-doubt prepares. [`Pending] means 2PC state exists but no
   durable decision yet — the asker retries. *)
let handle_status ctx shard ~txn =
  match Shard.decided shard txn with
  | Some (out, _) -> `Decided out
  | None -> if Sim.Int_table.mem ctx.coord_states txn then `Pending else `Unknown

let rec handle_vote ctx coord_shard ~txn ~vote_view outcome =
  let cs = coord_state ctx txn in
  (match outcome with
  | `Abort -> cs.cs_abort <- true
  | `Ok (tp, tee) ->
    if tp > cs.cs_max_tp then cs.cs_max_tp <- tp;
    if tee > cs.cs_max_tee then cs.cs_max_tee <- tee);
  cs.cs_vote_views <- vote_view :: cs.cs_vote_views;
  cs.cs_votes <- cs.cs_votes + 1;
  maybe_decide ctx coord_shard ~txn;
  coord_gc ctx txn cs

and maybe_decide ctx coord_shard ~txn =
  let cs = coord_state ctx txn in
  match cs.cs_expected with
  | Some expected
    when (not cs.cs_decided) && cs.cs_local_ready && cs.cs_votes >= expected ->
    (* Decision-time view validation: a participant whose group elected a
       new leader since it voted has lost its volatile read locks (and the
       serialization they guaranteed), so its vote is void. *)
    let views_ok =
      (not ctx.failover)
      || List.for_all
           (fun (sid, v) ->
             Replication.Group.view ctx.shards.(sid).Shard.repl = v)
           cs.cs_vote_views
    in
    let tombstoned =
      ctx.failover
      &&
      match Shard.decided coord_shard txn with
      | Some (Types.Aborted, _) -> true
      | Some (Types.Committed _, _) | None -> false
    in
    if cs.cs_abort || Types.is_wounded ctx.txns txn || (not views_ok) || tombstoned
    then decide_abort ctx coord_shard ~txn
    else decide_commit ctx coord_shard ~txn
  | Some _ | None -> ()

and decide_abort ctx coord_shard ~txn =
  let cs = coord_state ctx txn in
  if not cs.cs_decided then begin
    cs.cs_decided <- true;
    if Obs.Trace.enabled ctx.tracer then
      Obs.Trace.instant ~site:coord_shard.Shard.leader_site ctx.tracer
        ~kind:Obs.Trace.Phase ~name:"2pc.abort" ~ts:(Sim.Engine.now ctx.engine);
    cs.cs_settled <- true;
    (Types.find ctx.txns txn).Types.outcome <- Some Types.Aborted;
    release_at_shard ctx coord_shard ~txn Types.Aborted;
    List.iter
      (fun p ->
        if p <> coord_shard.Shard.shard_id then
          to_shard ctx ~src:coord_shard.Shard.leader_site ~bytes:32 p (fun sh ->
              release_at_shard ctx sh ~txn Types.Aborted))
      cs.cs_participants;
    cs.cs_client (Types.Aborted, cs.cs_max_tee);
    coord_gc ctx txn cs
  end

and decide_commit ctx coord_shard ~txn =
  let cs = coord_state ctx txn in
  cs.cs_decided <- true;
  let tr = ctx.tracer in
  (* Spans decision -> commit record durable -> commit wait elapsed; the
     outcome broadcast and client reply hops parent to it via the ambient. *)
  let commit_sp =
    if Obs.Trace.enabled tr then
      Obs.Trace.begin_span ~site:coord_shard.Shard.leader_site tr
        ~kind:Obs.Trace.Phase ~name:"2pc.commit" ~ts:(Sim.Engine.now ctx.engine)
    else Obs.Trace.none
  in
  let now_latest = (Sim.Truetime.now ctx.tt).Sim.Truetime.latest in
  let tc =
    List.fold_left max 1
      [ cs.cs_max_tp; now_latest; cs.cs_start_latest + 1;
        coord_shard.Shard.max_write_ts + 1 ]
  in
  let own_writes =
    match Shard.prepared coord_shard txn with
    | Some p -> p.Shard.p_writes
    | None -> []
  in
  (* The commit record: forced to the coordinator group's log before any
     side effect, so the decision survives a coordinator leader crash. *)
  Replication.Group.replicate coord_shard.Shard.repl
    (Types.Routcome
       {
         r_txn = txn;
         r_out = Types.Committed tc;
         r_writes = own_writes;
         r_max_tee = cs.cs_max_tee;
       })
    (fun () ->
      cs.cs_settled <- true;
      if ctx.failover && Shard.decided coord_shard txn = None then
        Shard.set_decided coord_shard ~txn (Types.Committed tc)
          ~max_tee:cs.cs_max_tee;
      (* Commit wait: no server reveals the data before tc definitely
         passed. *)
      wait_truetime ctx tc (fun () ->
          Obs.Trace.with_current tr commit_sp (fun () ->
              (Types.find ctx.txns txn).Types.outcome <- Some (Types.Committed tc);
              release_at_shard ctx coord_shard ~txn (Types.Committed tc);
              List.iter
                (fun p ->
                  if p <> coord_shard.Shard.shard_id then
                    to_shard ctx ~src:coord_shard.Shard.leader_site p (fun sh ->
                        release_at_shard ctx sh ~txn (Types.Committed tc)))
                cs.cs_participants;
              cs.cs_client (Types.Committed tc, cs.cs_max_tee);
              coord_gc ctx txn cs);
          Obs.Trace.end_span tr commit_sp ~ts:(Sim.Engine.now ctx.engine)))

(* A participant with a prepared transaction and no outcome asks the
   coordinator, with retransmission: the coordinator may be mid-election.
   The soft probes turn forcing if the answer doesn't converge:

   - [`Unknown]: abort tombstones are volatile, so a coordinator view
     change can forget an abort it once decided, leaving the durable
     prepare with no record to converge on. No coordinator state and no
     durable commit record means no CommitRequest was acknowledged —
     presume abort, and tombstone so a late CommitRequest aborts rather
     than resurrects.
   - [`Pending]: the decision is stuck short of its expected vote count —
     typically a vote that died with a crashed leader (decision-time view
     validation would void a late copy of it anyway). Abort is always safe
     before a decision, and it frees the prepare's locks; the waiting
     client sees the abort and retries.

   No flow, as for [rw_txn]'s terminate: both ask how a commit already sent
   ended, and giving up early would force an abort on a possible commit. *)
let resolve_in_doubt ctx shard txn =
  if Shard.prepared shard txn <> None && not (Sim.Int_table.mem shard.Shard.in_doubt txn)
  then
    match (ctx.rpc, Shard.prepared shard txn) with
    | Some rpc, Some p ->
      Sim.Int_table.replace shard.Shard.in_doubt txn ();
      Sim.Rpc.call ~name:"rpc.resolve_in_doubt" rpc
        ~attempt:(fun ~attempt:n ~ok ->
          to_shard ctx ~src:shard.Shard.leader_site ~bytes:32 p.Shard.p_coord
            (fun csh ->
              let reply out =
                to_shard ctx ~src:csh.Shard.leader_site ~bytes:32
                  shard.Shard.shard_id (fun _ -> ok out)
              in
              match handle_status ctx csh ~txn with
              | `Decided out -> reply out
              | `Unknown when n >= 3 ->
                Shard.set_decided csh ~txn Types.Aborted ~max_tee:0;
                let meta = Types.find ctx.txns txn in
                if meta.Types.outcome = None then
                  meta.Types.outcome <- Some Types.Aborted;
                reply Types.Aborted
              | `Pending when n >= 5 -> (
                match Sim.Int_table.find_opt ctx.coord_states txn with
                | Some cs when not cs.cs_decided ->
                  decide_abort ctx csh ~txn;
                  reply Types.Aborted
                | Some _ | None -> ())
              | `Pending | `Unknown -> ()))
        ~on_result:(fun res ->
          Sim.Int_table.remove shard.Shard.in_doubt txn;
          match res with
          | Some out ->
            ctx.n_in_doubt_resolved <- ctx.n_in_doubt_resolved + 1;
            release_at_shard ctx shard ~txn out
          | None -> ())
    | _ -> ()

(* Participant prepare: validate, lock, choose tp, replicate, vote. The §6
   wound-wait optimization advances the stored t_ee by the blocked time. *)
let participant_prepare ctx shard ~txn ~priority ~writes_here ~tee ~coord =
  let tr = ctx.tracer in
  let prep_sp =
    if Obs.Trace.enabled tr then
      Obs.Trace.begin_span ~site:shard.Shard.leader_site tr
        ~kind:Obs.Trace.Phase ~name:"2pc.prepare"
        ~ts:(Sim.Engine.now ctx.engine)
    else Obs.Trace.none
  in
  (* The vote carries the voter's group view so the coordinator can void it
     if this shard fails over before the decision. *)
  let vote outcome =
    let vote_view =
      (shard.Shard.shard_id, Replication.Group.view shard.Shard.repl)
    in
    Obs.Trace.with_current tr prep_sp (fun () ->
        to_shard ctx ~src:shard.Shard.leader_site coord (fun coord_shard ->
            handle_vote ctx coord_shard ~txn ~vote_view outcome));
    Obs.Trace.end_span tr prep_sp ~ts:(Sim.Engine.now ctx.engine)
  in
  if List.exists (fun (key, _) -> not (owns ctx shard key)) writes_here then begin
    (* Stale route: the range moved since the client picked participants. *)
    ctx.n_redirects <- ctx.n_redirects + 1;
    vote `Abort
  end
  else if List.exists (fun (key, _) -> Shard.fenced shard key) writes_here
  then begin
    ctx.n_fence_blocked <- ctx.n_fence_blocked + 1;
    Sim.Int_table.replace ctx.fence_bounced txn ();
    vote `Abort
  end
  else if Types.is_wounded ctx.txns txn then vote `Abort
  else
    let keys = List.map fst writes_here in
    acquire_writes shard ~txn ~priority keys ~blocked:0 (function
      | Error () -> vote `Abort
      | Ok blocked_us ->
        if Types.is_wounded ctx.txns txn then begin
          Locks.release_all shard.Shard.locks ~txn;
          vote `Abort
        end
        else begin
          let tp = Shard.choose_prepare_ts shard in
          let p =
            {
              Shard.p_txn = txn;
              p_tp = tp;
              p_tee = tee + blocked_us;
              p_writes = writes_here;
              p_waiters = [];
              p_coord = coord;
              p_participants = [];
            }
          in
          Shard.add_prepared shard p;
          if writes_here = [] then vote (`Ok (0, p.Shard.p_tee))
          else
            Replication.Group.replicate shard.Shard.repl
              (Types.Rprepare
                 {
                   r_txn = txn;
                   r_tp = tp;
                   r_tee = p.Shard.p_tee;
                   r_writes = writes_here;
                   r_coord = coord;
                   r_participants = [];
                 })
              (fun () -> vote (`Ok (tp, p.Shard.p_tee)))
        end)

(* Coordinator's half: its own locks and prepare timestamp, then decide once
   all votes arrive. Votes can overtake the CommitRequest on WANs that
   violate the triangle inequality, so the state may pre-exist. *)
let coordinator_request ctx coord_shard ~txn ~priority ~writes_here ~tee
    ~participants ~start_latest ~read_views
    ~(client : (Types.outcome * int) -> unit) =
  match Shard.decided coord_shard txn with
  | Some (out, mt) ->
    (* Already terminated (client gave up and forced an outcome) or decided
       by a predecessor leader whose log we replayed. *)
    client (out, mt)
  | None ->
    let cs = coord_state ctx txn in
    cs.cs_expected <- Some (List.length participants - 1);
    cs.cs_client <- client;
    cs.cs_participants <- participants;
    cs.cs_coord <- coord_shard.Shard.shard_id;
    cs.cs_start_latest <- start_latest;
    (* The views under which the execution-phase reads were served join the
       decision-time validation set: a read's 2PL lock dies with its
       leader, so a view change at any read shard between the read and the
       decision voids the serialization it promised. Vote views alone miss
       the read-to-vote window — a participant that fails over after
       serving a read but before voting re-votes from the new view and
       would validate cleanly while the read is stale. *)
    cs.cs_vote_views <- read_views @ cs.cs_vote_views;
    if tee > cs.cs_max_tee then cs.cs_max_tee <- tee;
    let local_ready () =
      if not cs.cs_decided then begin
        cs.cs_vote_views <-
          ( coord_shard.Shard.shard_id,
            Replication.Group.view coord_shard.Shard.repl )
          :: cs.cs_vote_views;
        cs.cs_local_ready <- true;
        maybe_decide ctx coord_shard ~txn
      end
    in
    let bounced =
      if List.exists (fun (key, _) -> not (owns ctx coord_shard key)) writes_here
      then begin
        ctx.n_redirects <- ctx.n_redirects + 1;
        true
      end
      else if List.exists (fun (key, _) -> Shard.fenced coord_shard key) writes_here
      then begin
        ctx.n_fence_blocked <- ctx.n_fence_blocked + 1;
        Sim.Int_table.replace ctx.fence_bounced txn ();
        true
      end
      else false
    in
    if cs.cs_decided then
      (* Aborted via a wound that raced ahead of this request. *)
      client (Types.Aborted, cs.cs_max_tee)
    else if Types.is_wounded ctx.txns txn then decide_abort ctx coord_shard ~txn
    else if bounced then begin
      (* Same shape as a lock-acquisition failure: vote abort locally and
         let the decision collect the remote votes. *)
      cs.cs_abort <- true;
      local_ready ()
    end
    else
      let keys = List.map fst writes_here in
      acquire_writes coord_shard ~txn ~priority keys ~blocked:0 (fun res ->
          if not cs.cs_decided then begin
            match res with
            | Error () ->
              cs.cs_abort <- true;
              local_ready ()
            | Ok blocked_us ->
              if Types.is_wounded ctx.txns txn then begin
                cs.cs_abort <- true;
                local_ready ()
              end
              else begin
                let tp = Shard.choose_prepare_ts coord_shard in
                if tp > cs.cs_max_tp then cs.cs_max_tp <- tp;
                let tee_local = tee + blocked_us in
                if tee_local > cs.cs_max_tee then cs.cs_max_tee <- tee_local;
                Shard.add_prepared coord_shard
                  {
                    Shard.p_txn = txn;
                    p_tp = tp;
                    p_tee = tee_local;
                    p_writes = writes_here;
                    p_waiters = [];
                    p_coord = coord_shard.Shard.shard_id;
                    p_participants = participants;
                  };
                if ctx.failover then
                  (* Make the coordinator's own promise durable too, so a
                     new leader can find (and presume-abort) the in-doubt
                     transactions this one coordinated. *)
                  Replication.Group.replicate coord_shard.Shard.repl
                    (Types.Rprepare
                       {
                         r_txn = txn;
                         r_tp = tp;
                         r_tee = tee_local;
                         r_writes = writes_here;
                         r_coord = coord_shard.Shard.shard_id;
                         r_participants = participants;
                       })
                    local_ready
                else local_ready ()
              end
          end)

(* A wound against a prepared holder: ask its coordinator to abort. If the
   decision already happened, the requester just waits out the commit. With
   failover armed the coordinator's volatile state may be gone entirely —
   then the prepare is in-doubt and is resolved by querying (the transaction
   cannot commit behind our back without the coordinator knowing). *)
let wound_prepared ctx shard txn =
  Types.wound ctx.txns txn;
  match Sim.Int_table.find_opt ctx.coord_states txn with
  | Some cs when (not cs.cs_decided) && cs.cs_coord >= 0 ->
    decide_abort ctx ctx.shards.(cs.cs_coord) ~txn
  | Some _ -> ()
  | None -> if ctx.failover then resolve_in_doubt ctx shard txn

(* A new leader took over [shard]'s group: install the replicated log,
   advance past any timestamp the old leader could have served under its
   lease, drop the volatile 2PC state that lived in the old leader's
   memory, and settle the in-doubt prepares — our own coordinated
   transactions without a commit record presume abort (the record is forced
   before any effect, so an unlogged commit never happened); foreign ones
   query their coordinator. *)
let on_shard_leader_change ctx shard ~leader_site ~committed =
  shard.Shard.leader_site <- leader_site;
  Shard.rebuild shard ~entries:committed;
  Shard.advance_max_write_ts shard (Sim.Truetime.now ctx.tt).Sim.Truetime.latest;
  (* The sweep only removes, so the fold's order is free. *)
  let stale =
    Sim.Int_table.fold
      (fun txn cs acc ->
        if cs.cs_coord = shard.Shard.shard_id && not cs.cs_settled then
          txn :: acc
        else acc)
      ctx.coord_states []
  in
  List.iter (fun txn -> Sim.Int_table.remove ctx.coord_states txn) stale;
  let survivors = Shard.prepared_txns shard in
  List.iter
    (fun txn ->
      match Shard.prepared shard txn with
      | None -> ()
      | Some p ->
        if p.Shard.p_coord = shard.Shard.shard_id then begin
          ctx.n_in_doubt_resolved <- ctx.n_in_doubt_resolved + 1;
          let meta = Types.find ctx.txns txn in
          if meta.Types.outcome = None then
            meta.Types.outcome <- Some Types.Aborted;
          release_at_shard ctx shard ~txn Types.Aborted;
          List.iter
            (fun pid ->
              if pid <> shard.Shard.shard_id then
                to_shard ctx ~src:leader_site ~bytes:32 pid (fun sh ->
                    release_at_shard ctx sh ~txn Types.Aborted))
            p.Shard.p_participants
        end
        else resolve_in_doubt ctx shard txn)
    survivors

let make_ctx engine net tt txns config =
  let shards =
    Array.init config.Config.n_shards (fun shard_id ->
        Shard.create engine net tt txns config ~shard_id)
  in
  let ctx =
    {
      engine;
      net;
      tt;
      config;
      txns;
      shards;
      coord_states = Sim.Int_table.create ();
      estimate = Config.estimator config;
      by_shard = Hashtbl.create 8;
      n_rw_committed = 0;
      n_rw_aborted_attempts = 0;
      n_ro = 0;
      n_ro_slow = 0;
      failover = false;
      rpc = None;
      n_terminates = 0;
      n_terminate_commits = 0;
      n_in_doubt_resolved = 0;
      tracer = Obs.Trace.disabled;
      directory =
        Place.Directory.create ~n_shards:config.Config.n_shards
          ~base:(fun key -> Config.shard_of_key config key)
          ();
      place_stats =
        {
          started = 0;
          completed = 0;
          failed = 0;
          source_retries = 0;
          keys_moved = 0;
          fence_hold_us = 0;
          max_fence_hold_us = 0;
        };
      n_redirects = 0;
      n_fence_blocked = 0;
      fence_bounced = Sim.Int_table.create ();
      flow = Sim.Flow.create net;
    }
  in
  Array.iter
    (fun sh -> sh.Shard.wound_prepared_hook := fun txn -> wound_prepared ctx sh txn)
    shards;
  ctx

let set_tracer ctx tracer =
  ctx.tracer <- tracer;
  Sim.Net.set_tracer ctx.net tracer;
  (match ctx.rpc with Some rpc -> Sim.Rpc.set_tracer rpc tracer | None -> ());
  Array.iter
    (fun sh -> Replication.Group.set_tracer sh.Shard.repl tracer)
    ctx.shards

let enable_failover ctx ~rng ?config ~until_us () =
  ctx.failover <- true;
  let rpc =
    Sim.Rpc.create ctx.engine ~rng ~timeout_us:300_000 ~max_attempts:15 ()
  in
  Sim.Rpc.set_tracer rpc ctx.tracer;
  ctx.rpc <- Some rpc;
  Array.iter
    (fun sh ->
      Replication.Group.enable_failover sh.Shard.repl ?config
        ~on_leader_change:(fun ~leader_site ~committed ->
          on_shard_leader_change ctx sh ~leader_site ~committed)
        ~until_us ())
    ctx.shards

(* Execution-phase read at a shard: 2PL read lock, then the newest version.
   Ownership and fence are checked before any lock is taken: a request for
   a key this shard no longer owns (the client routed on a stale view) or
   a key inside a migration fence bounces — the reply-None path the client
   already treats as an abort-and-retry, by which time the fence is down
   or the refreshed view routes to the new owner. *)
let handle_rw_read ctx shard ~txn ~priority ~keys
    ~(reply : (int * int option) list option -> unit) =
  let rec loop keys acc =
    match keys with
    | [] -> reply (Some acc)
    | key :: rest ->
      Locks.acquire_read shard.Shard.locks ~key ~txn ~priority (function
        | Locks.Aborted -> reply None
        | Locks.Granted _ ->
          let v = Shard.read_version_at shard ~key ~ts:max_int in
          let observed = Option.map (fun (v : Types.version) -> v.Types.value) v in
          loop rest ((key, observed) :: acc))
  in
  if List.exists (fun key -> not (owns ctx shard key)) keys then begin
    ctx.n_redirects <- ctx.n_redirects + 1;
    reply None
  end
  else if List.exists (Shard.fenced shard) keys then begin
    ctx.n_fence_blocked <- ctx.n_fence_blocked + 1;
    Sim.Int_table.replace ctx.fence_bounced txn ();
    reply None
  end
  else if Types.is_wounded ctx.txns txn then reply None
  else loop keys []

(* Forcing outcome query from a client that stopped hearing from its
   coordinator. If the transaction is known and undecided, abort it; if it
   was never heard of (the coordinator's volatile state died with the old
   leader, and no commit record survived), tombstone an abort so a late
   CommitRequest cannot resurrect it. [`Pending] — a commit record in
   flight — is the one state that must not be forced either way. *)
let handle_terminate ctx shard ~txn ~reply =
  match Shard.decided shard txn with
  | Some (out, mt) -> reply (`Decided (out, mt))
  | None -> (
    match Sim.Int_table.find_opt ctx.coord_states txn with
    | Some cs when cs.cs_decided -> reply `Pending
    | Some cs ->
      decide_abort ctx shard ~txn;
      reply (`Decided (Types.Aborted, cs.cs_max_tee))
    | None ->
      Shard.set_decided shard ~txn Types.Aborted ~max_tee:0;
      let meta = Types.find ctx.txns txn in
      if meta.Types.outcome = None then meta.Types.outcome <- Some Types.Aborted;
      reply (`Decided (Types.Aborted, 0)))

(* The settle state of a client op that arms a timer (an RW attempt's
   deadline, an RO's re-issue): the pending timer's handle while the op is
   open ([op_unarmed] before one is scheduled), [op_settled] once it is
   done. Both markers are negative, so neither names an event. Settling
   cancels the timer. *)
let op_settled = -1

let op_unarmed = -2

let settle_op ctx state =
  Sim.Engine.cancel ctx.engine !state;
  state := op_settled

let rw_txn ?(on_attempt = fun (_ : int) -> ()) ?deadline_us ?view ctx
    ~client_site ~proc ~read_keys ~writes k =
  if writes = [] then invalid_arg "Protocol.rw_txn: empty write set";
  let write_keys = List.map fst writes in
  if List.length (List.sort_uniq compare write_keys) <> List.length write_keys then
    invalid_arg "Protocol.rw_txn: duplicate write keys";
  let read_keys = List.sort_uniq compare read_keys in
  (* Retries keep this first-attempt priority (classic wound-wait), and the
     tiebreak makes priorities a strict total order. *)
  let priority = (Sim.Engine.now ctx.engine, Types.tiebreak ctx.txns) in
  let attempts = ref 0 in
  (* Absolute expiry for deadline propagation: fixed at first issue, so
     retries inherit the remaining (not a fresh) deadline — the property
     that stops retry storms from doing useless work server-side. *)
  let expires = Sim.Flow.expires ctx.flow deadline_us in
  let rec attempt () =
    (* Routing is re-derived per attempt from the client's cached view:
       an attempt bounced off a moved range refreshes the view in [retry]
       and the next attempt addresses the new owner. *)
    let write_shards = group_by_shard ?view ctx (List.map fst writes) in
    let read_shards = group_by_shard ?view ctx read_keys in
    let participant_ids =
      List.sort_uniq compare
        (List.map fst write_shards @ List.map fst read_shards)
    in
    let coord, est_latency =
      ctx.estimate ~client_site
        ~participants:(List.map fst write_shards)
    in
    let meta = Types.fresh ctx.txns ~proc ~priority in
    let txn = meta.Types.id in
    on_attempt txn;
    (* Server-suggested backoff from an admission-control pushback on this
       attempt's reads: folded into the retry backoff below so a shed
       client waits at least as long as the server asked. *)
    let pushback_us = ref 0 in
    (* Release everything this attempt still holds (at the shards this
       attempt actually addressed). *)
    let release_attempt txn =
      (Types.find ctx.txns txn).Types.outcome <- Some Types.Aborted;
      List.iter
        (fun shard_id ->
          to_shard ctx ~src:client_site ~bytes:32 shard_id (fun sh ->
              release_at_shard ctx sh ~txn Types.Aborted))
        participant_ids
    in
    (* Give up for good: past its deadline (a retry cannot meet it) or out
       of retry budget (a retry would amplify the very overload that failed
       it). Locks still release — an abandoned txn must not strand
       waiters. *)
    let abandon txn =
      Sim.Flow.abandon ctx.flow;
      release_attempt txn
    in
    let retry txn =
      release_attempt txn;
      (match view with
      | Some v when Place.Directory.stale v -> Place.Directory.refresh v
      | Some _ | None -> ());
      (* Exponential backoff, capped: retry storms on hot keys otherwise
         multiply wound-wait convoys. A fence bounce gets a much higher cap:
         the fence stands for the whole drain + barrier, and retrying at
         wound-wait cadence keeps a rolling stream of old-priority read
         locks on the hot keys that starves the writers the drain itself is
         waiting on (the retry keeps its first-attempt priority, so a
         fence-stuck session outranks every later transaction it touches). *)
      let fence_hit = Sim.Int_table.mem ctx.fence_bounced txn in
      Sim.Int_table.remove ctx.fence_bounced txn;
      incr attempts;
      let shift = min !attempts (if fence_hit then 9 else 5) in
      let backoff = (5_000 * (1 lsl shift)) + (txn mod 5_000) in
      let backoff = max backoff !pushback_us in
      (* A retry that would start past the op's expiry, or with the retry
         budget spent, fast-fails (abandoned) rather than join a retry
         storm; the release already ran above. *)
      Sim.Flow.retry ctx.flow ?expires ~after_us:backoff attempt
    in
    (* --- execution (read) phase --- *)
    let pending = ref (List.length read_shards) in
    let observed = ref [] in
    let read_views = ref [] in
    let failed = ref false in
    (* First settlement wins: the coordinator's reply, or — with failover
       armed and a deadline set — the client's terminate protocol. *)
    let state = ref op_unarmed in
    let terminate_attempt () =
      ctx.n_terminates <- ctx.n_terminates + 1;
      match ctx.rpc with
      | None -> retry txn
      | Some rpc ->
        (* No flow: an outcome query, exempt as [resolve_in_doubt] is. *)
        Sim.Rpc.call ~name:"rpc.terminate" rpc
          ~attempt:(fun ~attempt:_ ~ok ->
            to_shard ctx ~src:client_site ~bytes:32 coord (fun csh ->
                handle_terminate ctx csh ~txn ~reply:(function
                  | `Decided (out, mt) ->
                    to_client ctx ~src:csh.Shard.leader_site ~bytes:32
                      ~dst:client_site (fun () -> ok (out, mt))
                  | `Pending -> ())))
          ~on_result:(function
            | Some (Types.Committed tc, mt) ->
              ctx.n_terminate_commits <- ctx.n_terminate_commits + 1;
              ctx.n_rw_committed <- ctx.n_rw_committed + 1;
              (* The coordinator (or its successor) holds a durable commit;
                 nudge any participant the outcome broadcast missed. *)
              List.iter
                (fun pid ->
                  if pid <> coord then
                    to_shard ctx ~src:client_site ~bytes:32 pid (fun sh ->
                        release_at_shard ctx sh ~txn (Types.Committed tc)))
                participant_ids;
              wait_truetime ctx
                (max tc (mt - Sim.Truetime.epsilon ctx.tt))
                (fun () ->
                  k { rw_commit_ts = tc; rw_txn_id = txn; rw_reads = !observed })
            | Some (Types.Aborted, _) ->
              ctx.n_rw_aborted_attempts <- ctx.n_rw_aborted_attempts + 1;
              retry txn
            | None ->
              (* Out of attempts with the outcome unknown: the coordinator
                 may still commit, so a participant that prepared keeps its
                 prepared writes and asks the coordinator itself (in-doubt
                 resolution). Every other participant holds only this
                 attempt's read locks or queued requests — the deadline can
                 fire before any prepare is sent — and no coordinator
                 record will ever release them: release those, as an
                 abandoned txn must not strand waiters. *)
              Sim.Flow.abandon ctx.flow;
              List.iter
                (fun shard_id ->
                  to_shard ctx ~src:client_site ~bytes:32 shard_id (fun sh ->
                      if Shard.prepared sh txn <> None then
                        resolve_in_doubt ctx sh txn
                      else release_at_shard ctx sh ~txn Types.Aborted))
                participant_ids)
    in
    (match deadline_us with
    | Some d when ctx.failover ->
      state :=
        Sim.Engine.schedule_cancellable ~kind:"txn.deadline" ctx.engine ~after:d
          (fun () ->
            if !state <> op_settled then begin
              state := op_settled;
              terminate_attempt ()
            end)
    | Some _ | None -> ());
    let commit_phase () =
      let start_latest = (Sim.Truetime.now ctx.tt).Sim.Truetime.latest in
      let tee =
        (Sim.Truetime.now ctx.tt).Sim.Truetime.earliest
        + est_latency
        + (2 * Sim.Truetime.epsilon ctx.tt)
        + ctx.config.Config.tee_pad_us
      in
      let on_outcome (outcome, max_tee) =
        if !state <> op_settled then begin
          settle_op ctx state;
          match outcome with
          | Types.Committed tc ->
            ctx.n_rw_committed <- ctx.n_rw_committed + 1;
            (* Complete only once every shard's stored t_ee is a definite
               lower bound on this (real) end time. *)
            wait_truetime ctx (max_tee - Sim.Truetime.epsilon ctx.tt) (fun () ->
                k { rw_commit_ts = tc; rw_txn_id = txn; rw_reads = !observed })
          | Types.Aborted ->
            ctx.n_rw_aborted_attempts <- ctx.n_rw_aborted_attempts + 1;
            retry txn
        end
      in
      let reply_to_client out =
        to_client ctx ~src:ctx.shards.(coord).Shard.leader_site ~dst:client_site
          (fun () -> on_outcome out)
      in
      List.iter
        (fun shard_id ->
          let writes_here =
            match List.assoc_opt shard_id write_shards with
            | None -> []
            | Some keys -> List.map (fun key -> (key, List.assoc key writes)) keys
          in
          if shard_id = coord then
            to_shard ctx ~src:client_site shard_id (fun sh ->
                coordinator_request ctx sh ~txn ~priority ~writes_here ~tee
                  ~participants:participant_ids ~start_latest
                  ~read_views:!read_views ~client:reply_to_client)
          else
            to_shard ctx ~src:client_site shard_id (fun sh ->
                participant_prepare ctx sh ~txn ~priority ~writes_here ~tee ~coord))
        participant_ids
    in
    let read_done () =
      decr pending;
      if !pending = 0 && !state <> op_settled then
        if !failed then begin
          settle_op ctx state;
          ctx.n_rw_aborted_attempts <- ctx.n_rw_aborted_attempts + 1;
          retry txn
        end
        else commit_phase ()
    in
    if read_shards = [] then commit_phase ()
    else
      List.iter
        (fun (shard_id, keys) ->
          (* Only the read phase carries the deadline and accepts pushback:
             it is the txn's front door, where refusing work is still
             cheap. Once prepares are out, messages must land. *)
          let reject = function
            | Sim.Flow.Expired ->
              if !state <> op_settled then begin
                settle_op ctx state;
                ctx.n_rw_aborted_attempts <- ctx.n_rw_aborted_attempts + 1;
                abandon txn
              end
            | Sim.Flow.Pushback pb ->
              pushback_us := max !pushback_us pb.retry_after_us;
              failed := true;
              read_done ()
          in
          to_shard ctx ~src:client_site ?expires ~reject shard_id (fun sh ->
              (* Conservative capture point: any view change after this —
                 even mid-batch, while later keys' locks are still being
                 granted — voids the whole attempt at decision time. *)
              let view_at_read = Replication.Group.view sh.Shard.repl in
              handle_rw_read ctx sh ~txn ~priority ~keys ~reply:(fun res ->
                  to_client ctx ~src:sh.Shard.leader_site ~dst:client_site
                    (fun () ->
                      (match res with
                      | None -> failed := true
                      | Some vals ->
                        observed := vals @ !observed;
                        read_views := (shard_id, view_at_read) :: !read_views);
                      read_done ()))))
        read_shards
  in
  attempt ()

(* ------------------------------------------------------------------ *)
(* Read-only transactions (Algorithms 1 and 2)                         *)
(* ------------------------------------------------------------------ *)

type ro_result = {
  ro_snap_ts : int;
  ro_reads : (int * int option) list;
  ro_slow : bool;
}

type fast_reply = {
  fr_values : (int * Types.version option) list;
  fr_skipped : (int * int * (int * int) list) list;
      (* (txn, tp, its writes to the requested keys) — §6 optimization 1 *)
}

type slow_reply = { sr_txn : int; sr_outcome : Types.outcome }

(* Shard-side RO handler (Algorithm 2). In Strict mode every conflicting
   prepared transaction with tp <= t_read blocks; in RSS mode only those
   that must be observed (tp <= t_min) or could have ended before the RO
   began (t_ee <= t_read). *)
let handle_ro ctx shard ~keys ~t_read ~t_min ~(fast : fast_reply -> unit)
    ~(slow : slow_reply -> unit) =
  shard.Shard.n_ro_served <- shard.Shard.n_ro_served + 1;
  (* Leader lease: advancing max_write_ts guarantees all future prepare
     timestamps exceed t_read, so Alg. 2's "wait until t_read <= MaxWriteTS"
     never blocks at a leader. *)
  Shard.advance_max_write_ts shard t_read;
  let p0 = Shard.conflicting_prepared shard ~keys ~max_tp:t_read in
  let blocking =
    match ctx.config.Config.mode with
    | Config.Strict -> p0
    | Config.Rss ->
      List.filter
        (fun (p : Shard.prepared) -> p.Shard.p_tp <= t_min || p.Shard.p_tee <= t_read)
        p0
  in
  if blocking <> [] then shard.Shard.n_ro_blocked <- shard.Shard.n_ro_blocked + 1;
  let tr = ctx.tracer in
  let block_sp =
    if Obs.Trace.enabled tr && blocking <> [] then
      Obs.Trace.begin_span ~site:shard.Shard.leader_site tr
        ~kind:Obs.Trace.Phase ~name:"ro.block" ~ts:(Sim.Engine.now ctx.engine)
    else Obs.Trace.none
  in
  (* With failover armed a conflicting prepare may be orphaned (its
     coordinator's leader died); kick off in-doubt resolution so the read
     does not wait on a decision nobody is driving. *)
  if ctx.failover then
    List.iter
      (fun (p : Shard.prepared) -> resolve_in_doubt ctx shard p.Shard.p_txn)
      p0;
  let finish () =
    Obs.Trace.end_span tr block_sp ~ts:(Sim.Engine.now ctx.engine);
    let remaining =
      List.filter
        (fun (p : Shard.prepared) -> Shard.prepared shard p.Shard.p_txn <> None)
        p0
    in
    let values =
      List.map (fun key -> (key, Shard.read_version_at shard ~key ~ts:t_read)) keys
    in
    let skipped =
      List.map
        (fun (p : Shard.prepared) ->
          let writes = List.filter (fun (k, _) -> List.mem k keys) p.Shard.p_writes in
          (p.Shard.p_txn, p.Shard.p_tp, writes))
        remaining
    in
    fast { fr_values = values; fr_skipped = skipped };
    List.iter
      (fun (p : Shard.prepared) ->
        Shard.wait_prepared shard p (fun outcome ->
            slow { sr_txn = p.Shard.p_txn; sr_outcome = outcome }))
      remaining
  in
  match blocking with
  | [] -> finish ()
  | _ ->
    let pending = ref (List.length blocking) in
    List.iter
      (fun p ->
        Shard.wait_prepared shard p (fun _ ->
            decr pending;
            if !pending = 0 then finish ()))
      blocking

let rec ro_once ?view ?expires ctx ~client_site ~t_min ~keys k =
  ctx.n_ro <- ctx.n_ro + 1;
  let t_read = (Sim.Truetime.now ctx.tt).Sim.Truetime.latest in
  let by_shard = group_by_shard ?view ctx keys in
  let pending_fast = ref (List.length by_shard) in
  (* Per-op scratch tables, kept on the stdlib: [resolve_from_committed]'s
     iteration order decides the order in which skipped txns resolve. *)
  let versions : (int, Types.version list) Hashtbl.t = Hashtbl.create 8 in
  (* Newest timestamp per key among the fast-path values only: t_snap must
     be computed from Alg. 2's V, not from slow-path resolutions (whose
     commit timestamps may exceed t_read). *)
  let fast_newest = ref 0 in
  let skipped : (int, int * (int * int) list) Hashtbl.t = Hashtbl.create 8 in
  (* Slow replies that overtook their shard's fast reply on the network. *)
  let early_outcomes : (int, Types.outcome) Hashtbl.t = Hashtbl.create 4 in
  let went_slow = ref false in
  let finished = ref false in
  let t_snap = ref 0 in
  let add_version key (v : Types.version) =
    let prev = try Hashtbl.find versions key with Not_found -> [] in
    Hashtbl.replace versions key (v :: prev)
  in
  let resolve txn outcome =
    match Hashtbl.find_opt skipped txn with
    | None -> Hashtbl.replace early_outcomes txn outcome
    | Some (_tp, writes) ->
      Hashtbl.remove skipped txn;
      (match outcome with
      | Types.Aborted -> ()
      | Types.Committed tc ->
        List.iter
          (fun (key, value) -> add_version key { Types.ts = tc; writer = txn; value })
          writes)
  in
  (* §6 optimization 1: a committed version returned by one shard reveals the
     commit timestamp of a transaction another shard skipped. *)
  let resolve_from_committed () =
    let found = ref [] in
    Hashtbl.iter
      (fun _ vs ->
        List.iter
          (fun (v : Types.version) ->
            if Hashtbl.mem skipped v.Types.writer then
              found := (v.Types.writer, v.Types.ts) :: !found)
          vs)
      versions;
    List.iter (fun (txn, tc) -> resolve txn (Types.Committed tc)) !found
  in
  let min_skipped_tp () = Hashtbl.fold (fun _ (tp, _) acc -> min tp acc) skipped max_int in
  let finish () =
    finished := true;
    let reads =
      List.map
        (fun key ->
          let vs = try Hashtbl.find versions key with Not_found -> [] in
          let best =
            List.fold_left
              (fun acc (v : Types.version) ->
                if v.Types.ts <= !t_snap then
                  match acc with
                  | Some (b : Types.version) when b.Types.ts >= v.Types.ts -> acc
                  | _ -> Some v
                else acc)
              None vs
          in
          (key, Option.map (fun (v : Types.version) -> v.Types.value) best))
        keys
    in
    if !went_slow then ctx.n_ro_slow <- ctx.n_ro_slow + 1;
    let witness_ts =
      match ctx.config.Config.mode with
      | Config.Strict -> t_read
      | Config.Rss -> max !t_snap t_min
    in
    k { ro_snap_ts = witness_ts; ro_reads = reads; ro_slow = !went_slow }
  in
  let check_done () =
    if (not !finished) && !pending_fast = 0 then
      if min_skipped_tp () > !t_snap then finish () else went_slow := true
  in
  let on_slow sr =
    resolve sr.sr_txn sr.sr_outcome;
    check_done ()
  in
  let on_fast fr =
    List.iter
      (fun (key, v) ->
        match v with
        | None -> ()
        | Some v ->
          add_version key v;
          if v.Types.ts > !fast_newest then fast_newest := v.Types.ts)
      fr.fr_values;
    List.iter
      (fun (txn, tp, writes) ->
        match Hashtbl.find_opt early_outcomes txn with
        | Some outcome ->
          Hashtbl.remove early_outcomes txn;
          (match outcome with
          | Types.Aborted -> ()
          | Types.Committed tc ->
            List.iter
              (fun (key, value) ->
                add_version key { Types.ts = tc; writer = txn; value })
              writes)
        | None -> Hashtbl.replace skipped txn (tp, writes))
      fr.fr_skipped;
    decr pending_fast;
    if !pending_fast = 0 then begin
      (* CalculateSnapshotTS: the earliest time at which a (fast) value is
         known for every key. *)
      t_snap := !fast_newest;
      resolve_from_committed ();
      check_done ()
    end
  in
  (* A shard that no longer owns some requested key bounces the whole RO:
     the client refreshes its view and re-issues with a fresh t_read.
     [finished] kills the dead attempt, so replies from its other shards
     are ignored. Note a fenced range still serves ROs at the source — the
     fence only blocks lock acquisition — so reads stay available through
     the whole handoff. *)
  let bounce () =
    if not !finished then begin
      finished := true;
      refresh_view view;
      ro_once ?view ?expires ctx ~client_site ~t_min ~keys k
    end
  in
  (* A shard's refusal kills this whole attempt ([finished] silences the
     other shards' replies — a partial RO is worthless). Expired: the
     deadline already passed, give up. Shed: re-issue the whole read after
     the server-suggested backoff, but only if the retry budget allows it
     and the deadline can still be met — otherwise fast-fail. *)
  let reject = function
    | Sim.Flow.Expired ->
      if not !finished then begin
        finished := true;
        Sim.Flow.abandon ctx.flow
      end
    | Sim.Flow.Pushback pb ->
      if not !finished then begin
        finished := true;
        Sim.Flow.retry ctx.flow ?expires ~after_us:pb.retry_after_us (fun () ->
            ro_once ?view ?expires ctx ~client_site ~t_min ~keys k)
      end
  in
  List.iter
    (fun (shard_id, shard_keys) ->
      to_shard ctx ~src:client_site ?expires ~reject shard_id (fun sh ->
          if List.exists (fun key -> not (owns ctx sh key)) shard_keys then begin
            ctx.n_redirects <- ctx.n_redirects + 1;
            to_client ctx ~src:sh.Shard.leader_site ~bytes:32 ~dst:client_site
              bounce
          end
          else
            handle_ro ctx sh ~keys:shard_keys ~t_read ~t_min
              ~fast:(fun fr ->
                to_client ctx ~src:sh.Shard.leader_site ~dst:client_site
                  (fun () -> on_fast fr))
              ~slow:(fun sr ->
                to_client ctx ~src:sh.Shard.leader_site ~dst:client_site
                  (fun () -> on_slow sr))))
    by_shard

(* A read-only transaction, optionally re-issued from scratch (fresh
   t_read, fresh closures) when a deadline passes without completion — a
   shard reply may have been lost to a crashed leader. First completion
   wins; the attempt budget bounds the tail so an unservable read does not
   keep the simulation alive forever. *)
let ro_txn ?deadline_us ?view ctx ~client_site ~proc:_ ~t_min ~keys k =
  let expires = Sim.Flow.expires ctx.flow deadline_us in
  match deadline_us with
  | Some d when ctx.failover ->
    let state = ref op_unarmed in
    (* Every re-issue after the first is a client re-offer, so Flow
       decides it when its timer fires. *)
    let rec go issued =
      if
        !state <> op_settled && issued < 25
        && (issued = 0 || Sim.Flow.may_retry ctx.flow ?expires ~after_us:0 ())
      then begin
        (* A re-issue may be retrying a read whose reply died with a moved
           leader; catch the view up first so it addresses current owners. *)
        (match view with
        | Some v when Place.Directory.stale v -> Place.Directory.refresh v
        | Some _ | None -> ());
        ro_once ?view ?expires ctx ~client_site ~t_min ~keys (fun res ->
            if !state <> op_settled then begin
              settle_op ctx state;
              k res
            end);
        let h =
          Sim.Engine.schedule_cancellable ~kind:"txn.deadline" ctx.engine
            ~after:d (fun () -> go (issued + 1))
        in
        if !state = op_settled then Sim.Engine.cancel ctx.engine h
        else state := h
      end
    in
    go 0
  | Some _ | None ->
    let hedge_us = Sim.Flow.hedge_us ctx.flow in
    if hedge_us <= 0 then ro_once ?view ?expires ctx ~client_site ~t_min ~keys k
    else begin
      (* Hedged read: if the primary has not completed after [hedge_us]
         (sized to a healthy-run latency percentile), issue one duplicate
         and let the first completion win. Against a gray-failed leader the
         hedge re-routes through the client's refreshed view — and even on
         an unchanged route it re-queues behind a shorter backlog than the
         stuck primary. The loser is cancelled client-side ([done_]); its
         server work completes harmlessly (reads take no locks). *)
      let done_ = ref false in
      let primary_done = ref false in
      ro_once ?view ?expires ctx ~client_site ~t_min ~keys (fun res ->
          primary_done := true;
          if not !done_ then begin
            done_ := true;
            k res
          end);
      Sim.Engine.schedule ~kind:"txn.hedge" ctx.engine ~after:hedge_us
        (fun () ->
          if not !done_ then begin
            Sim.Flow.hedge_issued ctx.flow;
            (match view with
            | Some v when Place.Directory.stale v -> Place.Directory.refresh v
            | Some _ | None -> ());
            ro_once ?view ?expires ctx ~client_site ~t_min ~keys (fun res ->
                if not !done_ then begin
                  done_ := true;
                  if not !primary_done then Sim.Flow.hedge_won ctx.flow;
                  k res
                end)
          end)
    end

let fence ctx ~t_min k = wait_truetime ctx (t_min + ctx.config.Config.fence_l_us) k

(* ------------------------------------------------------------------ *)
(* Overload & gray-failure controls                                    *)
(* ------------------------------------------------------------------ *)

let stations ctx =
  Array.to_list (Array.map (fun sh -> sh.Shard.station) ctx.shards)

(* Gray failure: every shard whose leader currently serves from [site]
   slows down. The station models the leader's CPU wherever it serves, so
   if failover later moves the leader the slowdown rides along — an
   acceptable approximation while the fault window is short (nemesis
   windows undo with [Slow_clear] before leaders move in a no-crash
   preset). *)
let set_site_slowdown ctx ~site ~factor =
  Array.iter
    (fun sh ->
      if sh.Shard.leader_site = site then
        Sim.Station.set_slowdown sh.Shard.station factor)
    ctx.shards

let clear_slowdowns ctx =
  Array.iter (fun sh -> Sim.Station.set_slowdown sh.Shard.station 1) ctx.shards

(* Snapshot reads (Spanner's read-at-timestamp API): a consistent view as of
   a caller-chosen timestamp. Shards block on prepared transactions that
   might still commit at or before [ts], then serve the versioned read. *)
let rec snapshot_read ?view ctx ~client_site ~ts ~keys k =
  let by_shard = group_by_shard ?view ctx keys in
  let pending = ref (List.length by_shard) in
  let acc = ref [] in
  (* Stale route: refresh and re-issue the whole read; [dead] silences the
     old attempt's other shard replies. *)
  let dead = ref false in
  let bounce () =
    if not !dead then begin
      dead := true;
      refresh_view view;
      snapshot_read ?view ctx ~client_site ~ts ~keys k
    end
  in
  List.iter
    (fun (shard_id, shard_keys) ->
      to_shard ctx ~src:client_site shard_id (fun sh ->
          if List.exists (fun key -> not (owns ctx sh key)) shard_keys
          then begin
            ctx.n_redirects <- ctx.n_redirects + 1;
            to_client ctx ~src:sh.Shard.leader_site ~bytes:32 ~dst:client_site
              bounce
          end
          else begin
          Shard.advance_max_write_ts sh ts;
          let blocking = Shard.conflicting_prepared sh ~keys:shard_keys ~max_tp:ts in
          if ctx.failover then
            List.iter
              (fun (p : Shard.prepared) -> resolve_in_doubt ctx sh p.Shard.p_txn)
              blocking;
          let finish () =
            let values =
              List.map
                (fun key ->
                  ( key,
                    Option.map
                      (fun (v : Types.version) -> v.Types.value)
                      (Shard.read_version_at sh ~key ~ts) ))
                shard_keys
            in
            to_client ctx ~src:sh.Shard.leader_site ~dst:client_site (fun () ->
                acc := values @ !acc;
                decr pending;
                if !pending = 0 && not !dead then k !acc)
          in
          (match blocking with
          | [] -> finish ()
          | _ ->
            let waiting = ref (List.length blocking) in
            List.iter
              (fun prepared ->
                Shard.wait_prepared sh prepared (fun _ ->
                    decr waiting;
                    if !waiting = 0 then finish ()))
              blocking)
          end))
    by_shard

(* ------------------------------------------------------------------ *)
(* Live key-range migration (elastic placement)                        *)
(* ------------------------------------------------------------------ *)

(* Shards currently owning keys in [lo, hi), destination excluded; these
   are the sources the driver must fence and drain. Per-key lookup because
   earlier migrations may have fragmented the range across owners. *)
let migration_sources ctx ~lo ~hi ~dst =
  let seen = Sim.Int_table.create () in
  for key = lo to hi - 1 do
    let o = Place.Directory.owner ctx.directory key in
    if o <> dst then Sim.Int_table.replace seen o ()
  done;
  List.sort compare (Sim.Int_table.fold (fun o () acc -> o :: acc) seen [])

(* Migrate [lo, hi) to [dst]; the protocol and the RSS argument are in
   protocol.mli. The control loop runs co-located with the shard leaders it
   manipulates (fence/drain/cut are direct state pokes, a directory-service
   stand-in like [to_shard]'s leader discovery); the snapshot ship is real
   traffic — durable log forces on both sides, a leader-to-leader hop sized
   by the snapshot, an ack hop back — and is what the timeout/retry
   machinery covers. *)
let migrate_poll_us = 500
let migrate_attempt_timeout_us = 2_000_000

(* Faults can leave an in-range participant prepared with nobody left to
   decide it; a drain that cannot finish within this burns a retry instead
   of pinning the fence forever. *)
let migrate_drain_timeout_us = 120_000_000
let migrate_max_retries = 16

let migrate ?(no_fence = false) ctx ~lo ~hi ~dst =
  if lo < 0 || hi <= lo then invalid_arg "Protocol.migrate: bad key range";
  if dst < 0 || dst >= Array.length ctx.shards then
    invalid_arg "Protocol.migrate: bad destination shard";
  let stats = ctx.place_stats and dir = ctx.directory in
  let now () = Sim.Engine.now ctx.engine in
  let sleep us f =
    Sim.Engine.schedule ~kind:"place.migrate" ctx.engine ~after:(max 1 us) f
  in
  (* The fence survives only on a leader that never rebuilt since it was
     set. *)
  let fence_ok src =
    match ctx.shards.(src).Shard.fence with
    | Some f -> f.Shard.f_lo = lo && f.Shard.f_hi = hi
    | None -> false
  in
  stats.started <- stats.started + 1;
  let sp =
    Obs.Trace.begin_span ctx.tracer ~kind:Obs.Trace.Migration
      ~name:(Printf.sprintf "migrate[%d,%d)->%d" lo hi dst)
      ~ts:(now ()) ~site:dst
  in
  let sources = migration_sources ctx ~lo ~hi ~dst in
  let fenced_at : int Sim.Int_table.t = Sim.Int_table.create () in
  let moved = ref 0 in
  let retries_left = ref migrate_max_retries in
  let finish ok =
    List.iter
      (fun src ->
        (match Sim.Int_table.find_opt fenced_at src with
        | Some t0 ->
          let held = now () - t0 in
          stats.fence_hold_us <- stats.fence_hold_us + held;
          if held > stats.max_fence_hold_us then stats.max_fence_hold_us <- held;
          Sim.Int_table.remove fenced_at src
        | None -> ());
        Shard.clear_fence ctx.shards.(src))
      sources;
    if ok then stats.completed <- stats.completed + 1
    else stats.failed <- stats.failed + 1;
    stats.keys_moved <- stats.keys_moved + !moved;
    Obs.Trace.end_span ctx.tracer sp ~ts:(now ())
  in
  let commit tm =
    ignore (Place.Directory.commit dir ~lo ~hi ~owner:dst ~tm);
    finish true
  in
  let rec do_source src k_done =
    if (not no_fence) && not (fence_ok src) then begin
      Shard.set_fence ctx.shards.(src) ~lo ~hi;
      if not (Sim.Int_table.mem fenced_at src) then
        Sim.Int_table.replace fenced_at src (now ())
    end;
    drain src (now ()) k_done
  and drain src t0 k_done =
    let sh = ctx.shards.(src) in
    if
      no_fence
      || (not (Locks.any_busy_in sh.Shard.locks ~lo ~hi))
         && not (Shard.prepared_in_range sh ~lo ~hi)
    then cut_and_ship src k_done
    else if not (fence_ok src) then
      (* leader rebuilt mid-drain and forgot the fence: start over *)
      retry src k_done
    else if now () - t0 > migrate_drain_timeout_us then retry src k_done
    else sleep migrate_poll_us (fun () -> drain src t0 k_done)
  and retry src k_done =
    stats.source_retries <- stats.source_retries + 1;
    if !retries_left <= 0 then finish false
    else begin
      decr retries_left;
      do_source src k_done
    end
  and cut_and_ship src k_done =
    (* Cut t_m above the source's write watermark and TT.latest, and advance
       the source so nothing can ever commit below t_m there again. *)
    let sh = ctx.shards.(src) in
    let tm =
      max
        (sh.Shard.max_write_ts + 1)
        ((Sim.Truetime.now ctx.tt).Sim.Truetime.latest + 1)
    in
    Shard.advance_max_write_ts sh tm;
    let settled = ref false in
    sleep migrate_attempt_timeout_us (fun () ->
        if not !settled then begin
          settled := true;
          retry src k_done
        end);
    (* Ship: snapshot, durably log the outgoing bump, install at the
       destination, which durably logs the incoming bump before acking.
       The ack may never come (lost message, deposed leader): the timeout
       above covers it, and installation is idempotent. *)
    let snap =
      Shard.snapshot_range sh ~lo ~hi ~owned:(fun key ->
          Place.Directory.owner dir key = src)
    in
    let n_keys = List.length snap in
    let n_versions = List.fold_left (fun acc (_, vs) -> acc + List.length vs) 0 snap in
    let bytes = 96 + (24 * n_versions) in
    let driver_site = sh.Shard.leader_site in
    Replication.Group.replicate sh.Shard.repl
      (Types.Rmigrate_out { m_lo = lo; m_hi = hi; m_tm = tm })
      (fun () ->
        to_shard ctx ~src:driver_site ~bytes dst (fun dsh ->
            ignore (Shard.install_versions dsh snap);
            Shard.advance_max_write_ts dsh tm;
            Replication.Group.replicate dsh.Shard.repl
              (Types.Rmigrate_in { m_lo = lo; m_hi = hi; m_tm = tm; m_versions = snap })
              (fun () ->
                to_client ctx ~src:dsh.Shard.leader_site ~bytes:32 ~dst:driver_site
                  (fun () ->
                    if not !settled then begin
                      settled := true;
                      moved := !moved + n_keys;
                      k_done tm
                    end))))
  in
  let rec phase srcs tms =
    match srcs with
    | src :: rest -> do_source src (fun tm -> phase rest (tm :: tms))
    | [] ->
      let tm = List.fold_left max (now ()) tms in
      let commit_point () =
        (* Fence re-verification and the epoch commit share one event, so
           no failover can sneak between the check and the commit. *)
        let lost =
          if no_fence then [] else List.filter (fun src -> not (fence_ok src)) sources
        in
        if lost = [] then commit tm
        else if !retries_left < List.length lost then finish false
        else begin
          retries_left := !retries_left - List.length lost;
          stats.source_retries <- stats.source_retries + List.length lost;
          phase lost tms
        end
      in
      if no_fence then commit_point () else wait_truetime ctx tm commit_point
  in
  (* No sources: the destination already owns the whole range, and the
     epoch bump still records the assignment. *)
  if sources = [] then commit (now ()) else phase sources []
