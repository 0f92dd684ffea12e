type t = Store.t

type session = Store.session

let create engine ~rng ?base_latency_us ?max_staleness_us () =
  Store.create engine ~rng ?base_latency_us ?max_staleness_us ()

let session t = Store.session t

let read s ~key k =
  Store.ro s ~keys:[ key ] (fun values ->
      match values with
      | [ (_, v) ] -> k v
      | _ -> invalid_arg "Registers.read: unexpected shape")

let write s ~key ~value k = Store.rw s ~reads:[] ~writes:[ (key, value) ] (fun _ -> k ())

let history t =
  Store.records t |> Array.to_list
  |> List.mapi (fun id r -> Rss_core.Txn_history.of_witness ~id r)
  |> Rss_core.Txn_history.make
