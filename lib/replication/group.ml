type status = Normal | View_change

type failover_config = {
  heartbeat_us : int;
  lease_us : int;
  grace_us : int;
}

let default_failover =
  (* The lease must exceed the worst WAN round trip (136 ms in the paper's
     three-site deployment) by a wide margin, or healthy followers read a
     slow pong as a dead leader. *)
  { heartbeat_us = 50_000; lease_us = 400_000; grace_us = 200_000 }

(* [e_id] is unique across the group's lifetime: a leader that loses a torn
   tail inside its view reuses log indices, so (view, index) does not name
   an entry, and an ack or install point must say which entry it means. *)
type 'a entry = { e_view : int; e_id : int; e_payload : 'a; e_bytes : int }

(* The last log a member installed wholesale (StartView or catch-up): the
   view it was installed in, and the index and id of its last entry. *)
type install = { i_view : int; i_idx : int; i_id : int }

let no_install = { i_view = -1; i_idx = -1; i_id = -1 }

type 'a member = {
  m_idx : int;
  m_site : int;
  m_store : Sim.Durable.t;
  m_log : 'a entry Sim.Durable.log;
  m_stash : (int, 'a entry) Hashtbl.t;  (* out-of-order appends (volatile) *)
  mutable m_view : int;  (* mirrored to [m_store] on every change *)
  mutable m_status : status;
  mutable m_last_heard : int;  (* last leader contact (follower side) *)
  mutable m_vc_view : int;  (* view being elected while [View_change] *)
  mutable m_vc_since : int;
  mutable m_dvc : ('a entry list * int) option array;
      (* candidate: DoViewChange (log, durable commit count) per member *)
  mutable m_sv_acked : bool array;  (* new leader: StartView acks *)
  mutable m_was_down : bool;
  mutable m_quarantined : bool;
      (* mid-log corruption below the durable commit index: refuse to serve,
         ack, or answer catch-ups until a peer state transfer repairs us *)
  mutable m_repair_span : Obs.Trace.span;
  mutable m_installed : install;
}

type pending = {
  pd_id : int;  (* the proposed entry's [e_id] *)
  pd_acked : bool array;  (* per member — the (entry, replica) dedup *)
  mutable pd_acks : int;
  mutable pd_fired : bool;
  pd_k : unit -> unit;
}

type 'a t = {
  net : Sim.Net.t;
  engine : Sim.Engine.t;
  station : Sim.Station.t option;
  members : 'a member array;  (* index 0 = initial leader *)
  n : int;
  majority : int;
  pending : (int, pending) Hashtbl.t;  (* by log index, current view only *)
  heard : int array;  (* leader-side lease: last ack/pong per member *)
  mutable view : int;  (* routing view: the last *activated* leadership *)
  mutable next_id : int;  (* next [e_id] *)
  mutable leader_idx : int;
  mutable serve_after : int;
  mutable cfg : failover_config option;
  mutable horizon : int;
  mutable on_leader_change : leader_site:int -> committed:'a list -> unit;
  mutable n_view_changes : int;
  mutable n_heartbeats : int;
  mutable n_catchups : int;
  mutable n_dup_acks : int;
  mutable n_torn_repaired : int;  (* torn/suspect suffixes truncated locally *)
  mutable n_corrupt_quarantined : int;  (* quarantine entries (transitions) *)
  mutable n_peer_repairs : int;  (* quarantines cleared by state transfer *)
  mutable vc_detect_at : int;  (* -1 when no election is in flight *)
  mutable max_election_us : int;
  mutable tracer : Obs.Trace.t;
  mutable vc_span : Obs.Trace.span;  (* open View_change span, if any *)
}

let create net ?station ~leader_site ~replica_sites () =
  let sites = Array.of_list (leader_site :: replica_sites) in
  let n = Array.length sites in
  let members =
    Array.mapi
      (fun i site ->
        let store =
          Sim.Durable.create ~site ~name:(Fmt.str "group-l%d-m%d" leader_site i)
        in
        {
          m_idx = i;
          m_site = site;
          m_store = store;
          m_log = Sim.Durable.log store;
          m_stash = Hashtbl.create 8;
          m_view = 0;
          m_status = Normal;
          m_last_heard = 0;
          m_vc_view = 0;
          m_vc_since = 0;
          m_dvc = Array.make n None;
          m_sv_acked = Array.make n false;
          m_was_down = false;
          m_quarantined = false;
          m_repair_span = Obs.Trace.none;
          m_installed = no_install;
        })
      sites
  in
  {
    net;
    engine = Sim.Net.engine net;
    station;
    members;
    n;
    majority = (n / 2) + 1;
    pending = Hashtbl.create 64;
    heard = Array.make n 0;
    view = 0;
    next_id = 0;
    leader_idx = 0;
    serve_after = 0;
    cfg = None;
    horizon = 0;
    on_leader_change = (fun ~leader_site:_ ~committed:_ -> ());
    n_view_changes = 0;
    n_heartbeats = 0;
    n_catchups = 0;
    n_dup_acks = 0;
    n_torn_repaired = 0;
    n_corrupt_quarantined = 0;
    n_peer_repairs = 0;
    vc_detect_at = -1;
    max_election_us = 0;
    tracer = Obs.Trace.disabled;
    vc_span = Obs.Trace.none;
  }

let set_tracer t tracer = t.tracer <- tracer

let majority t = t.majority

let view t = t.view

let leader_site t = t.members.(t.leader_idx).m_site

let log_length t = Sim.Durable.length t.members.(t.leader_idx).m_log

let committed t =
  List.map (fun e -> e.e_payload) (Sim.Durable.to_list t.members.(t.leader_idx).m_log)

let now t = Sim.Engine.now t.engine

let candidate_of t v = v mod t.n

let log_bytes entries = List.fold_left (fun acc e -> acc + e.e_bytes) 32 entries

(* Deliver [f] at member [m]; the handler is dropped if the site crashed
   after the message was sent (Net only filters at send time). *)
let msend t ~src ~bytes (m : 'a member) f =
  Sim.Net.send ~bytes t.net ~src:src.m_site ~dst:m.m_site (fun () ->
      if not (Sim.Net.is_down t.net m.m_site) then f ())

(* Batched counterpart of [msend], used by the replication data plane only
   (appends and acks). When the network has a batching policy this is what
   turns leader-side replication into group commit: appends buffered on the
   leader->follower link ship as one envelope (one quorum round per batch),
   the follower's acks coalesce on the way back, and the handler's envelope
   index lets ack processing amortize station cost. Control-plane traffic
   (heartbeats, view changes, catch-up) stays on [msend] — batching a
   failure detector would distort the very timeouts it measures. *)
let mpost t ~src ~bytes (m : 'a member) f =
  Sim.Net.post ~bytes t.net ~src:src.m_site ~dst:m.m_site (fun env_idx ->
      if not (Sim.Net.is_down t.net m.m_site) then f env_idx)

let adopt_view (m : 'a member) v =
  m.m_view <- v;
  Sim.Durable.set_int m.m_store "view" v

(* ------------------------------------------------------------------ *)
(* Storage integrity: verification + repair policy                     *)
(* ------------------------------------------------------------------ *)

(* Durable count of entries this member has seen commit: the leader writes
   it when a proposal gathers its majority, and followers learn it from the
   commit count piggybacked on heartbeats (clamped to their own log — only
   entries a follower actually holds are known-committed to it). The repair
   policy pivots on it — damage at or above the commit count is a suspect
   suffix we can drop and refetch; damage below it means locally-lost
   committed state, which only a peer state transfer can restore. *)
let commit_count (m : 'a member) =
  Sim.Durable.get_int m.m_store "commit" ~default:0

let record_commit (m : 'a member) idx =
  (* Majorities for different indices can land out of order. *)
  if idx + 1 > commit_count m then Sim.Durable.set_int m.m_store "commit" (idx + 1)

let learn_commit (m : 'a member) count =
  let count = min count (Sim.Durable.length m.m_log) in
  if count > commit_count m then Sim.Durable.set_int m.m_store "commit" count

let quarantine t (m : 'a member) ~at =
  if not m.m_quarantined then begin
    m.m_quarantined <- true;
    t.n_corrupt_quarantined <- t.n_corrupt_quarantined + 1;
    if Obs.Trace.enabled t.tracer then
      m.m_repair_span <-
        Obs.Trace.begin_span ~parent:Obs.Trace.none ~site:m.m_site t.tracer
          ~kind:Obs.Trace.Repair
          ~name:(Fmt.str "quarantine m%d idx=%d" m.m_idx at)
          ~ts:(now t)
  end

(* Check the member's log against its framing and apply the repair policy:
   torn tails are truncated to the surviving prefix; a corrupt or resurfaced
   suffix at/above the commit count is dropped (catch-up refetches it); any
   damage below the commit count quarantines the member until a peer state
   transfer restores the committed prefix. No-op (and message-free) on a
   clean log, so fault-free schedules are untouched. *)
let verify_storage t (m : 'a member) =
  match Sim.Durable.read_verified m.m_log with
  | Sim.Durable.Ok -> ()
  | Sim.Durable.Torn_tail n ->
    Sim.Durable.repair_torn_tail m.m_log;
    t.n_torn_repaired <- t.n_torn_repaired + 1;
    if Obs.Trace.enabled t.tracer then
      Obs.Trace.instant ~site:m.m_site t.tracer ~kind:Obs.Trace.Repair
        ~name:(Fmt.str "torn-tail m%d len=%d" m.m_idx n)
        ~ts:(now t);
    if n < commit_count m then quarantine t m ~at:n
  | Sim.Durable.Corrupt i ->
    if i >= commit_count m then begin
      Sim.Durable.truncate m.m_log i;
      t.n_torn_repaired <- t.n_torn_repaired + 1;
      if Obs.Trace.enabled t.tracer then
        Obs.Trace.instant ~site:m.m_site t.tracer ~kind:Obs.Trace.Repair
          ~name:(Fmt.str "drop-suspect-suffix m%d idx=%d" m.m_idx i)
          ~ts:(now t)
    end
    else quarantine t m ~at:i

let install_log t (m : 'a member) entries =
  Sim.Durable.replace m.m_log entries;
  Hashtbl.reset m.m_stash;
  (let n = Sim.Durable.length m.m_log in
   m.m_installed <-
     (if n = 0 then no_install
      else
        {
          i_view = m.m_view;
          i_idx = n - 1;
          i_id = (Sim.Durable.get m.m_log (n - 1)).e_id;
        }));
  if m.m_quarantined then
    if List.length entries >= commit_count m then begin
      m.m_quarantined <- false;
      t.n_peer_repairs <- t.n_peer_repairs + 1;
      if Obs.Trace.enabled t.tracer then begin
        Obs.Trace.end_span t.tracer m.m_repair_span ~ts:(now t);
        m.m_repair_span <- Obs.Trace.none
      end
    end
    else if Obs.Trace.enabled t.tracer then
      (* No peer had the committed suffix: stay quarantined (fail-stop);
         the run's [unrepaired] stat carries the diagnostic. *)
      Obs.Trace.instant ~site:m.m_site t.tracer ~kind:Obs.Trace.Repair
        ~name:
          (Fmt.str "state-transfer-short m%d got=%d need=%d" m.m_idx
             (List.length entries) (commit_count m))
        ~ts:(now t)

(* What this member may contribute to an election: a quarantined log is
   trusted only up to the first verified frame. *)
let dvc_entries t (m : 'a member) =
  verify_storage t m;
  if m.m_quarantined then Sim.Durable.verified_prefix m.m_log
  else Sim.Durable.to_list m.m_log

(* ------------------------------------------------------------------ *)
(* Replication (both modes)                                            *)
(* ------------------------------------------------------------------ *)

(* Count member [from] as holding the pending entry at [idx]; the
   proposal's callback fires with the majority. *)
let credit t ~from idx pd =
  pd.pd_acked.(from) <- true;
  pd.pd_acks <- pd.pd_acks + 1;
  if (not pd.pd_fired) && pd.pd_acks >= t.majority - 1 then begin
    pd.pd_fired <- true;
    Hashtbl.remove t.pending idx;
    pd.pd_k ()
  end

let send_ack t (m : 'a member) ~to_m ~view ~idx ~id =
  mpost t ~src:m ~bytes:16 to_m (fun env_idx ->
      let process () =
        (* Acks for an entry are deduplicated per replica: Net duplication
           must not count one replica's ack twice toward the majority. *)
        if
          t.cfg = None
          || (to_m.m_status = Normal && view = to_m.m_view)
        then begin
          t.heard.(m.m_idx) <- now t;
          match Hashtbl.find_opt t.pending idx with
          | Some pd when pd.pd_id = id ->
            if pd.pd_acked.(m.m_idx) then t.n_dup_acks <- t.n_dup_acks + 1
            else credit t ~from:m.m_idx idx pd
          | Some _ | None -> ()
        end
      in
      match t.station with
      | None -> process ()
      | Some st -> Sim.Flow.serve ~tracer:t.tracer st env_idx process)

let rec request_catchup t (m : 'a member) =
  Array.iter
    (fun o ->
      if o.m_idx <> m.m_idx then
        msend t ~src:m ~bytes:16 o (fun () -> recv_catchup_req t o ~from:m))
    t.members

and recv_catchup_req t (m : 'a member) ~from =
  (* Only a member that believes itself the leader of its view answers —
     and only from a log that verifies, or corruption would spread through
     the very channel meant to repair it. *)
  if m.m_status = Normal && candidate_of t m.m_view = m.m_idx then begin
    verify_storage t m;
    if m.m_quarantined then ()
    else begin
    let entries = Sim.Durable.to_list m.m_log in
    let v = m.m_view in
    msend t ~src:m ~bytes:(log_bytes entries) from (fun () ->
        recv_catchup_rep t from ~view:v ~entries)
    end
  end

and recv_catchup_rep t (m : 'a member) ~view ~entries =
  if
    view > m.m_view
    || (view = m.m_view
        && List.length entries > Sim.Durable.length m.m_log)
    || (m.m_quarantined && view >= m.m_view)
  then begin
    adopt_view m view;
    m.m_status <- Normal;
    install_log t m entries;
    m.m_last_heard <- now t;
    t.n_catchups <- t.n_catchups + 1
  end

(* Append at the end of a follower's log. Landing at or below the install
   point means the log was cut below it since (a torn tail, a dropped
   suffix), so the install no longer vouches for the prefix. *)
let follow (m : 'a member) e =
  let idx = Sim.Durable.append m.m_log ~bytes:e.e_bytes e in
  if idx <= m.m_installed.i_idx then m.m_installed <- no_install

let recv_append t (m : 'a member) ~from ~idx ~entry =
  match t.cfg with
  | None ->
    (* Failure-free mode: append blindly (indices are cosmetic) and ack —
       the pre-view-change behavior, byte for byte. *)
    ignore (Sim.Durable.append m.m_log ~bytes:entry.e_bytes entry);
    send_ack t m ~to_m:from ~view:entry.e_view ~idx ~id:entry.e_id
  | Some _ ->
    (* A quarantined member must not ack: its ack claims a prefix it does
       not intactly hold. The periodic tick keeps requesting repair. *)
    if m.m_status <> Normal || m.m_quarantined || entry.e_view < m.m_view
    then ()
    else if entry.e_view > m.m_view then
      (* We missed a view change; learn the new state before acking. *)
      request_catchup t m
    else begin
      m.m_last_heard <- now t;
      let len = Sim.Durable.length m.m_log in
      if idx < len then
        (* A re-ack names the entry this member holds at [idx]: after the
           leader lost a torn tail and reused the index, it is not the
           proposal's. *)
        send_ack t m ~to_m:from ~view:entry.e_view ~idx
          ~id:(Sim.Durable.get m.m_log idx).e_id
      else if idx = len then begin
        follow m entry;
        send_ack t m ~to_m:from ~view:entry.e_view ~idx ~id:entry.e_id;
        (* Drain any reordered successors that were stashed. *)
        let rec drain () =
          let len = Sim.Durable.length m.m_log in
          match Hashtbl.find_opt m.m_stash len with
          | Some e ->
            Hashtbl.remove m.m_stash len;
            follow m e;
            send_ack t m ~to_m:from ~view:e.e_view ~idx:len ~id:e.e_id;
            drain ()
          | None -> ()
        in
        drain ()
      end
      else begin
        Hashtbl.replace m.m_stash idx entry;
        request_catchup t m
      end
    end

let replicate t ?(bytes = 128) payload k =
  let lm = t.members.(t.leader_idx) in
  let entry =
    { e_view = t.view; e_id = t.next_id; e_payload = payload; e_bytes = bytes }
  in
  t.next_id <- t.next_id + 1;
  let idx = Sim.Durable.append lm.m_log ~bytes entry in
  if t.majority - 1 = 0 then begin
    record_commit lm idx;
    k ()
  end
  else begin
    let pd =
      {
        pd_id = entry.e_id;
        pd_acked = Array.make t.n false;
        pd_acks = 0;
        pd_fired = false;
        pd_k =
          (fun () ->
            record_commit lm idx;
            k ());
      }
    in
    pd.pd_acked.(lm.m_idx) <- true;
    Hashtbl.replace t.pending idx pd;
    Array.iter
      (fun m ->
        if m.m_idx <> lm.m_idx then
          mpost t ~src:lm ~bytes m (fun _env_idx ->
              recv_append t m ~from:lm ~idx ~entry))
      t.members
  end

(* ------------------------------------------------------------------ *)
(* View changes (failover mode)                                        *)
(* ------------------------------------------------------------------ *)

let maybe_activate t (m : 'a member) cfg =
  let acks = Array.fold_left (fun a b -> if b then a + 1 else a) 0 m.m_sv_acked in
  if acks >= t.majority && t.view < m.m_view then begin
    t.view <- m.m_view;
    t.leader_idx <- m.m_idx;
    t.serve_after <- now t + cfg.grace_us;
    Array.fill t.heard 0 t.n (now t);
    Hashtbl.reset t.pending;  (* older-view proposals never commit *)
    t.n_view_changes <- t.n_view_changes + 1;
    if t.vc_detect_at >= 0 then begin
      let d = now t - t.vc_detect_at in
      if d > t.max_election_us then t.max_election_us <- d;
      t.vc_detect_at <- -1;
      if Obs.Trace.enabled t.tracer then begin
        Obs.Trace.end_span t.tracer t.vc_span ~ts:(now t);
        t.vc_span <- Obs.Trace.none
      end
    end;
    t.on_leader_change ~leader_site:m.m_site
      ~committed:(List.map (fun e -> e.e_payload) (Sim.Durable.to_list m.m_log))
  end

let rec recv_start_view t (m : 'a member) ~from ~view ~entries =
  if view > m.m_view || (view = m.m_view && m.m_status = View_change) then begin
    adopt_view m view;
    m.m_status <- Normal;
    install_log t m entries;
    m.m_last_heard <- now t;
    send_sv_ack t m ~to_m:from ~view
  end
  else if view = m.m_view && m.m_status = Normal then
    (* Duplicate StartView: re-ack so the new leader can activate. *)
    send_sv_ack t m ~to_m:from ~view

and send_sv_ack t (m : 'a member) ~to_m ~view =
  msend t ~src:m ~bytes:16 to_m (fun () ->
      match t.cfg with
      | None -> ()
      | Some cfg ->
        if
          to_m.m_status = Normal && view = to_m.m_view
          && candidate_of t view = to_m.m_idx
        then
          if not to_m.m_sv_acked.(m.m_idx) then begin
            to_m.m_sv_acked.(m.m_idx) <- true;
            maybe_activate t to_m cfg
          end)

let rec check_dvc_quorum t (m : 'a member) cfg =
  let got = Array.fold_left (fun a o -> if o <> None then a + 1 else a) 0 m.m_dvc in
  if m.m_status = View_change && got >= t.majority then begin
    (* Longest log from the latest view wins — it contains every entry that
       could have committed (any commit majority intersects this quorum). *)
    let rank entries =
      match List.rev entries with
      | [] -> (-1, 0)
      | last :: _ -> (last.e_view, List.length entries)
    in
    let best = ref [] in
    let need = ref 0 in
    Array.iter
      (function
        | Some (entries, commit) ->
          if rank entries > rank !best then best := entries;
          if commit > !need then need := commit
        | None -> ())
      m.m_dvc;
    let v = m.m_vc_view in
    adopt_view m v;
    m.m_status <- Normal;
    install_log t m !best;
    m.m_last_heard <- now t;
    if List.length !best < !need then begin
      (* Every quorum log is damaged below some member's durable commit
         count: committed state is lost and no peer in this quorum has the
         suffix. Fail-stop — take the view but stay quarantined (no
         StartView, no serving), so the group halts with a diagnostic
         instead of silently serving a truncated history. *)
      quarantine t m ~at:(List.length !best);
      if Obs.Trace.enabled t.tracer then
        Obs.Trace.instant ~site:m.m_site t.tracer ~kind:Obs.Trace.Repair
          ~name:
            (Fmt.str "elected-log-short m%d got=%d need=%d" m.m_idx
               (List.length !best) !need)
          ~ts:(now t)
    end
    else begin
      m.m_sv_acked <- Array.make t.n false;
      m.m_sv_acked.(m.m_idx) <- true;
      let entries = !best in
      Array.iter
        (fun o ->
          if o.m_idx <> m.m_idx then
            msend t ~src:m ~bytes:(log_bytes entries) o (fun () ->
                recv_start_view t o ~from:m ~view:v ~entries))
        t.members;
      maybe_activate t m cfg
    end
  end

and start_view_change t (m : 'a member) cfg v =
  m.m_status <- View_change;
  m.m_vc_view <- v;
  m.m_vc_since <- now t;
  m.m_dvc <- Array.make t.n None;
  if t.vc_detect_at < 0 then begin
    t.vc_detect_at <- now t;
    if Obs.Trace.enabled t.tracer then
      t.vc_span <-
        Obs.Trace.begin_span ~parent:Obs.Trace.none ~site:m.m_site t.tracer
          ~kind:Obs.Trace.View_change ~name:"view_change" ~ts:(now t)
  end;
  Array.iter
    (fun o ->
      if o.m_idx <> m.m_idx then
        msend t ~src:m ~bytes:16 o (fun () -> recv_svc t o cfg ~view:v))
    t.members;
  let cand = candidate_of t v in
  let entries = dvc_entries t m in
  let commit = commit_count m in
  if cand = m.m_idx then begin
    m.m_dvc.(m.m_idx) <- Some (entries, commit);
    check_dvc_quorum t m cfg
  end
  else
    msend t ~src:m ~bytes:(log_bytes entries) t.members.(cand) (fun () ->
        recv_dvc t t.members.(cand) cfg ~from:m.m_idx ~view:v ~entries ~commit)

and recv_svc t (m : 'a member) cfg ~view =
  let interested =
    match m.m_status with
    | Normal -> view > m.m_view
    | View_change -> view > m.m_vc_view
  in
  if interested then start_view_change t m cfg view

and recv_dvc t (m : 'a member) cfg ~from ~view ~entries ~commit =
  let joined =
    match m.m_status with
    | View_change -> view > m.m_vc_view
    | Normal -> view > m.m_view
  in
  if joined then start_view_change t m cfg view;
  if m.m_status = View_change && view = m.m_vc_view && candidate_of t view = m.m_idx
  then begin
    m.m_dvc.(from) <- Some (entries, commit);
    check_dvc_quorum t m cfg
  end

(* ------------------------------------------------------------------ *)
(* Heartbeats, leases, failure detection                               *)
(* ------------------------------------------------------------------ *)

(* The install point a member still vouches for: none while it is
   quarantined or its log no longer has that entry there. *)
let held_install (m : 'a member) =
  let inst = m.m_installed in
  if
    (not m.m_quarantined)
    && inst.i_idx >= 0
    && inst.i_idx < Sim.Durable.length m.m_log
    && (Sim.Durable.get m.m_log inst.i_idx).e_id = inst.i_id
  then inst
  else no_install

(* A follower that caught up by state transfer holds the leader's entries
   up to its install point but never acks them: their appends reached it
   before the install (stashed, then dropped by it) or not at all. With
   every follower in that state a proposal would wait forever although a
   majority holds it. So the pong names the install point, and the leader
   credits the follower with every pending entry up to it, provided the
   install is from this view (it was then the leader's own log) and the
   leader still has that very entry there (it has not lost a torn tail
   below it since, which would also have dropped the entry). *)
let recv_pong t (m : 'a member) ~from ~view ~inst =
  if m.m_status = Normal && view = m.m_view then begin
    t.heard.(from) <- now t;
    if
      m.m_idx = t.leader_idx && view = t.view && inst.i_view = view
      && Hashtbl.length t.pending > 0
      && inst.i_idx < Sim.Durable.length m.m_log
      && (Sim.Durable.get m.m_log inst.i_idx).e_id = inst.i_id
    then
      Hashtbl.fold
        (fun idx pd acc ->
          if idx <= inst.i_idx && not pd.pd_acked.(from) then (idx, pd) :: acc
          else acc)
        t.pending []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (idx, pd) -> credit t ~from idx pd)
  end

let recv_pong_stale t (m : 'a member) ~newer_view =
  (* A deposed leader learns it was replaced: step down and catch up. *)
  if newer_view > m.m_view then begin
    adopt_view m newer_view;
    m.m_status <- Normal;
    m.m_last_heard <- now t;
    request_catchup t m
  end

let recv_ping t (m : 'a member) ~from ~view ~len ~commit =
  if view > m.m_view then begin
    m.m_last_heard <- now t;
    request_catchup t m
  end
  else if view < m.m_view then
    let v = m.m_view in
    msend t ~src:m ~bytes:16 from (fun () -> recv_pong_stale t from ~newer_view:v)
  else begin
    m.m_last_heard <- now t;
    if m.m_status = Normal then begin
      learn_commit m commit;
      if len > Sim.Durable.length m.m_log then request_catchup t m;
      let inst = held_install m in
      msend t ~src:m ~bytes:16 from (fun () ->
          recv_pong t from ~from:m.m_idx ~view ~inst)
    end
  end

let leader_duties t (m : 'a member) =
  let len = Sim.Durable.length m.m_log in
  let v = m.m_view in
  let commit = commit_count m in
  Array.iter
    (fun o ->
      if o.m_idx <> m.m_idx then begin
        t.n_heartbeats <- t.n_heartbeats + 1;
        msend t ~src:m ~bytes:24 o (fun () ->
            recv_ping t o ~from:m ~view:v ~len ~commit)
      end)
    t.members

let rec tick t (m : 'a member) () =
  match t.cfg with
  | None -> ()
  | Some cfg ->
    if now t <= t.horizon then begin
      (if Sim.Net.is_down t.net m.m_site then m.m_was_down <- true
       else if m.m_was_down then begin
         (* First tick after recovery: volatile state is gone; rejoin from
            the durable log + view — after checking the log survived the
            crash intact — and let catch-up repair the rest. *)
         m.m_was_down <- false;
         m.m_status <- Normal;
         Hashtbl.reset m.m_stash;
         m.m_last_heard <- now t;
         verify_storage t m;
         request_catchup t m
       end
       else
         match m.m_status with
         | Normal when m.m_quarantined ->
           (* No duties (a quarantined leader goes silent so the lease
              expires and followers elect around it); keep begging for the
              state transfer that repairs us. *)
           request_catchup t m
         | Normal when candidate_of t m.m_view = m.m_idx -> leader_duties t m
         | Normal ->
           if now t - m.m_last_heard > cfg.lease_us then
             start_view_change t m cfg (m.m_view + 1)
         | View_change ->
           if now t - m.m_vc_since > cfg.lease_us then
             (* The candidate itself is dead or cut off: try the next one. *)
             start_view_change t m cfg (m.m_vc_view + 1));
      Sim.Engine.schedule ~kind:"repl.timer" t.engine ~after:cfg.heartbeat_us
        (tick t m)
    end

let enable_failover t ?(config = default_failover) ?on_leader_change ~until_us ()
    =
  t.cfg <- Some config;
  t.horizon <- until_us;
  (match on_leader_change with Some f -> t.on_leader_change <- f | None -> ());
  Array.fill t.heard 0 t.n (now t);
  Array.iter
    (fun m ->
      (* Wire the scrub pass into the repair policy: a background scan that
         flags this log runs the same verify-and-repair path recovery uses,
         then asks peers for the missing state. Repair needs the failover
         machinery (elections, catch-up), hence registered here. *)
      Sim.Durable.set_repairer m.m_log (fun _ ->
          if not (Sim.Net.is_down t.net m.m_site) then begin
            verify_storage t m;
            request_catchup t m
          end);
      m.m_last_heard <- now t;
      (* Stagger first ticks so members never probe in lockstep. *)
      Sim.Engine.schedule ~kind:"repl.timer" t.engine
        ~after:(config.heartbeat_us + (m.m_idx * 1_009))
        (tick t m))
    t.members

let has_lease t cfg =
  let n = now t in
  (* Past the failover horizon the heartbeat timers have wound down (they
     must, or the event queue would never drain), so staleness no longer
     means anything — the last holder keeps the lease. *)
  n > t.horizon
  ||
  let cnt = ref 0 in
  Array.iteri
    (fun i _ -> if i = t.leader_idx || n - t.heard.(i) <= cfg.lease_us then incr cnt)
    t.heard;
  !cnt >= t.majority

let serving t =
  match t.cfg with
  | None -> true
  | Some cfg ->
    let lm = t.members.(t.leader_idx) in
    lm.m_status = Normal && lm.m_view = t.view
    && (not lm.m_quarantined)
    && (not (Sim.Net.is_down t.net lm.m_site))
    && now t >= t.serve_after && has_lease t cfg

type stats = {
  view_changes : int;
  heartbeats : int;
  catchups : int;
  dup_acks : int;
  max_election_us : int;
  durable_appends : int;
  durable_bytes : int;
  torn_repaired : int;
  corrupt_quarantined : int;
  peer_repairs : int;
  unrepaired : int;
}

let stats t =
  let appends, bytes =
    Array.fold_left
      (fun (a, b) m ->
        (a + Sim.Durable.appends m.m_store, b + Sim.Durable.bytes_written m.m_store))
      (0, 0) t.members
  in
  {
    view_changes = t.n_view_changes;
    heartbeats = t.n_heartbeats;
    catchups = t.n_catchups;
    dup_acks = t.n_dup_acks;
    max_election_us = t.max_election_us;
    durable_appends = appends;
    durable_bytes = bytes;
    torn_repaired = t.n_torn_repaired;
    corrupt_quarantined = t.n_corrupt_quarantined;
    peer_repairs = t.n_peer_repairs;
    unrepaired =
      Array.fold_left
        (fun a m -> if m.m_quarantined then a + 1 else a)
        0 t.members;
  }

