type causality = No_causality | Fence_on_switch | Context_propagation

type session = {
  s_rw :
    reads:string list -> writes:(string * int) list ->
    ((string * int option) list -> unit) -> unit;
  s_ro : keys:string list -> ((string * int option) list -> unit) -> unit;
  s_fence : (unit -> unit) -> unit;
  s_capture : unit -> int;
  s_absorb : int -> unit;
}

type store = { store_name : string; new_session : unit -> session }

(* ------------------------------------------------------------------ *)
(* Store adapters                                                      *)
(* ------------------------------------------------------------------ *)

let spanner_store cluster =
  let keymap : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let next_key = ref 0 in
  let key_id k =
    match Hashtbl.find_opt keymap k with
    | Some i -> i
    | None ->
      let i = !next_key in
      incr next_key;
      Hashtbl.add keymap k i;
      i
  in
  let n_sites = Array.length (Spanner.Cluster.config cluster).Spanner.Config.client_sites in
  let next_site = ref 0 in
  let name =
    match (Spanner.Cluster.config cluster).Spanner.Config.mode with
    | Spanner.Config.Strict -> "spanner-strict"
    | Spanner.Config.Rss -> "spanner-rss"
  in
  let new_session () =
    let site = (Spanner.Cluster.config cluster).Spanner.Config.client_sites.(!next_site mod n_sites) in
    incr next_site;
    let c = Spanner.Client.create cluster ~site in
    {
      s_rw =
        (fun ~reads ~writes k ->
          let read_keys = List.map key_id reads in
          let writes = List.map (fun (key, v) -> (key_id key, v)) writes in
          Spanner.Client.rw_kv c ~read_keys ~writes (fun res ->
              let back = Hashtbl.create 4 in
              List.iter (fun key -> Hashtbl.replace back (key_id key) key) reads;
              k
                (List.map
                   (fun (ki, v) -> (Hashtbl.find back ki, v))
                   res.Spanner.Protocol.rw_reads)));
      s_ro =
        (fun ~keys k ->
          let kids = List.map key_id keys in
          Spanner.Client.ro c ~keys:kids (fun res ->
              let back = Hashtbl.create 4 in
              List.iter (fun key -> Hashtbl.replace back (key_id key) key) keys;
              k
                (List.map
                   (fun (ki, v) -> (Hashtbl.find back ki, v))
                   res.Spanner.Protocol.ro_reads)));
      s_fence = (fun k -> Spanner.Client.fence c k);
      s_capture = (fun () -> Spanner.Client.t_min c);
      s_absorb = (fun t_min -> Spanner.Client.absorb_t_min c t_min);
    }
  in
  { store_name = name; new_session }

let po_store store =
  let new_session () =
    let s = Postore.Store.session store in
    {
      s_rw = (fun ~reads ~writes k -> Postore.Store.rw s ~reads ~writes k);
      s_ro = (fun ~keys k -> Postore.Store.ro s ~keys k);
      s_fence = (fun k -> k ());  (* PO stores have no fence to offer *)
      s_capture = (fun () -> 0);
      s_absorb = (fun _ -> ());
    }
  in
  { store_name = "po-serializable"; new_session }

(* ------------------------------------------------------------------ *)
(* Application logic                                                   *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable adds : int;
  mutable i1_checks : int;
  mutable i1_violations : int;
  mutable i2_checks : int;
  mutable i2_violations : int;
  mutable a2_trials : int;
  mutable a2_anomalies : int;
  mutable a3_trials : int;
  mutable a3_anomalies : int;
  mutable a3_window_us : int;
      (** summed duration of observed A3 windows (anomaly onset until a
          retrying reader sees the photo) — the paper's "temporarily" *)
}

let album u = Fmt.str "album:%d" u

let photo u i = Fmt.str "photo:%d:%d" u i

(* Unique non-nil photo payloads; album values are photo counts, which the
   store requires to be unique per key — counts only grow, so they are. *)
let photo_payload u i = 7_000_000 + (u * 1_000) + i

(* Add photo #i for user u in one transaction, then enqueue processing. *)
let add_photo session queue ~causality ~user ~index k =
  session.s_rw
    ~reads:[ album user ]
    ~writes:[ (photo user index, photo_payload user index); (album user, index) ]
    (fun _ ->
      let enqueue () =
        let ctx =
          match causality with
          | Context_propagation -> session.s_capture ()
          | No_causality | Fence_on_switch -> 0
        in
        Mqueue.enqueue queue ~payload:(user * 1_000_000 + index) ~ctx k
      in
      match causality with
      | Fence_on_switch -> session.s_fence enqueue
      | No_causality | Context_propagation -> enqueue ())

(* Worker: dequeue one request and verify I2 (the photo must exist). *)
let worker_step session queue ~causality tally k =
  Mqueue.dequeue queue (fun item ->
      match item with
      | None -> k ()
      | Some (payload, ctx) ->
        let user = payload / 1_000_000 and index = payload mod 1_000_000 in
        (match causality with
        | Context_propagation -> session.s_absorb ctx
        | No_causality | Fence_on_switch -> ());
        session.s_ro ~keys:[ photo user index ] (fun values ->
            tally.i2_checks <- tally.i2_checks + 1;
            (match values with
            | [ (_, None) ] -> tally.i2_violations <- tally.i2_violations + 1
            | _ -> ());
            k ()))

(* Reader: list a user's album and fetch every referenced photo; I1 demands
   all of them exist. *)
let check_album session ~user tally k =
  session.s_ro ~keys:[ album user ] (fun values ->
      match values with
      | [ (_, None) ] | [] -> k ()
      | [ (_, Some n) ] ->
        let keys = List.init n (fun i -> photo user (i + 1)) in
        if keys = [] then k ()
        else
          session.s_ro ~keys (fun photos ->
              tally.i1_checks <- tally.i1_checks + 1;
              if List.exists (fun (_, v) -> v = None) photos then
                tally.i1_violations <- tally.i1_violations + 1;
              k ())
      | _ :: _ :: _ -> k ())

(* A2: Alice adds a photo, then calls Bob (out-of-band, after completion);
   Bob reads the album and must see it. *)
let a2_trial engine store queue ~causality ~call_latency_us ~user ~index tally k =
  let alice = store.new_session () in
  let bob = store.new_session () in
  add_photo alice queue ~causality ~user ~index (fun () ->
      Sim.Engine.schedule engine ~after:call_latency_us (fun () ->
          (* A phone call carries no store metadata in any configuration —
             the point of A2 is that completion alone must suffice. *)
          bob.s_ro ~keys:[ album user ] (fun values ->
              tally.a2_trials <- tally.a2_trials + 1;
              (match values with
              | [ (_, v) ] when v = Some index || (match v with Some n -> n > index | None -> false) -> ()
              | _ -> tally.a2_anomalies <- tally.a2_anomalies + 1);
              k ())))

(* A3: Charlie starts adding a photo; Alice polls the album until she
   observes the new entry, then calls Bob, who fetches the photo itself.
   The album and photo live on different shards: the commit may be applied
   at the album's shard (where Alice read) before the photo's — strict
   serializability forces Bob's read to wait it out; RSS lets Bob briefly
   return nothing. *)
let a3_trial engine store queue ~causality ~call_latency_us ~user ~index tally k =
  let charlie = store.new_session () in
  let alice = store.new_session () in
  let bob = store.new_session () in
  let charlie_done = ref false in
  add_photo charlie queue ~causality ~user ~index (fun () -> charlie_done := true);
  let rec alice_poll patience =
    alice.s_ro ~keys:[ album user ] (fun values ->
        let seen = match values with [ (_, Some n) ] -> n >= index | _ -> false in
        if seen then begin
          Sim.Engine.schedule engine ~after:call_latency_us (fun () ->
              let anomaly_onset = Sim.Engine.now engine in
              let rec bob_read first =
                bob.s_ro ~keys:[ photo user index ] (fun bvalues ->
                    let bob_sees =
                      match bvalues with [ (_, Some _) ] -> true | _ -> false
                    in
                    if first then begin
                      tally.a3_trials <- tally.a3_trials + 1;
                      if not bob_sees then
                        tally.a3_anomalies <- tally.a3_anomalies + 1
                    end;
                    if bob_sees then begin
                      if not first then
                        (* window: anomaly onset until Bob's retries see it *)
                        tally.a3_window_us <-
                          tally.a3_window_us
                          + (Sim.Engine.now engine - anomaly_onset);
                      k ()
                    end
                    else bob_read false)
              in
              bob_read true)
        end
        else if not !charlie_done then alice_poll patience
        else if patience > 0 then
          (* Keep refreshing for a while after the add completed (a real user
             reloading the page); bounded so runs terminate. *)
          alice_poll (patience - 1)
        else k ())
  in
  alice_poll 25

let zero_tally () =
  {
    adds = 0;
    i1_checks = 0;
    i1_violations = 0;
    i2_checks = 0;
    i2_violations = 0;
    a2_trials = 0;
    a2_anomalies = 0;
    a3_trials = 0;
    a3_anomalies = 0;
    a3_window_us = 0;
  }

let run_scenarios engine ~rng ~store ~causality ~users ~rounds ~queue_rtt_us
    ~call_latency_us =
  let tally = zero_tally () in
  let queue = Mqueue.create engine ~rtt_us:queue_rtt_us in
  let worker_session = store.new_session () in
  (* Per-user photo counters; all regular adds for a user go through one
     uploader session so album counts stay sequential. The A2/A3 trials get
     a fresh user each — concurrent adds to one user would make the album
     counter non-monotone (an application race, not a consistency anomaly)
     and corrupt the detectors. *)
  let uploader = Array.init users (fun _ -> store.new_session ()) in
  let reader = Array.init users (fun _ -> store.new_session ()) in
  let photo_count = Array.make users 0 in
  let next_trial_user = ref users in
  for round = 1 to rounds do
    let user = Sim.Rng.int rng users in
    let jitter = Sim.Rng.int rng 50_000 in
    let at = (round * 120_000) + jitter in
    Sim.Engine.schedule engine ~after:at (fun () ->
        match Sim.Rng.int rng 4 with
        | 0 ->
          photo_count.(user) <- photo_count.(user) + 1;
          tally.adds <- tally.adds + 1;
          add_photo uploader.(user) queue ~causality ~user
            ~index:photo_count.(user) (fun () -> ())
        | 1 -> check_album reader.(user) ~user tally (fun () -> ())
        | 2 ->
          let user = !next_trial_user in
          incr next_trial_user;
          tally.adds <- tally.adds + 1;
          a2_trial engine store queue ~causality ~call_latency_us ~user ~index:1
            tally (fun () -> ())
        | _ ->
          let user = !next_trial_user in
          incr next_trial_user;
          tally.adds <- tally.adds + 1;
          a3_trial engine store queue ~causality ~call_latency_us ~user ~index:1
            tally (fun () -> ()));
    (* Interleave worker activity. *)
    Sim.Engine.schedule engine ~after:(at + 60_000) (fun () ->
        worker_step worker_session queue ~causality tally (fun () -> ()))
  done;
  (* Drain the queue at the end. *)
  Sim.Engine.schedule engine ~after:((rounds + 2) * 120_000) (fun () ->
      let rec drain () =
        worker_step worker_session queue ~causality tally (fun () ->
            if Mqueue.length queue > 0 then drain ())
      in
      drain ());
  tally

let run_store ~rounds ~seeds kind =
  let sum = zero_tally () in
  let name = ref "" in
  List.iter
    (fun seed ->
      let engine = Sim.Engine.create () in
      let rng = Sim.Rng.make seed in
      let spanner mode =
        spanner_store
          (Spanner.Cluster.create engine ~rng:(Sim.Rng.split rng)
             (Spanner.Config.wan3 ~mode ()))
      in
      let store =
        match kind with
        | `Strict -> spanner Spanner.Config.Strict
        | `Rss -> spanner Spanner.Config.Rss
        | `Po -> po_store (Postore.Store.create engine ~rng:(Sim.Rng.split rng) ())
      in
      name := store.store_name;
      let t =
        run_scenarios engine ~rng ~store ~causality:No_causality ~users:4 ~rounds
          ~queue_rtt_us:2_000 ~call_latency_us:1_000
      in
      Sim.Engine.run ~max_events:100_000_000 engine;
      sum.adds <- sum.adds + t.adds;
      sum.i1_checks <- sum.i1_checks + t.i1_checks;
      sum.i1_violations <- sum.i1_violations + t.i1_violations;
      sum.i2_checks <- sum.i2_checks + t.i2_checks;
      sum.i2_violations <- sum.i2_violations + t.i2_violations;
      sum.a2_trials <- sum.a2_trials + t.a2_trials;
      sum.a2_anomalies <- sum.a2_anomalies + t.a2_anomalies;
      sum.a3_trials <- sum.a3_trials + t.a3_trials;
      sum.a3_anomalies <- sum.a3_anomalies + t.a3_anomalies;
      sum.a3_window_us <- sum.a3_window_us + t.a3_window_us)
    seeds;
  (!name, sum)
