(** Domain worker pool: parallel order-preserving array map. *)

let default_workers () = max 1 (Domain.recommended_domain_count ())

let map ?workers f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let workers =
      max 1 (min n (Option.value workers ~default:(default_workers ())))
    in
    let results = Array.make n None in
    (* Work queue: a single atomic cursor over the input indices. Each
       worker owns the cells it claims, so the [results] writes are
       race-free. *)
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (f xs.(i));
          loop ()
        end
      in
      loop ()
    in
    if workers = 1 then worker ()
    else begin
      let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join spawned;
      (* A joined domain leaves its heap orphaned until some domain ends
         a major cycle and adopts it. A caller that allocates little may
         not end one for a long time: until then the dead data of the
         workers' jobs stays in the heap, and how much of it the heap
         statistics count depends on which worker finished last. One
         full major adopts and sweeps it before [map] returns. *)
      Gc.full_major ()
    end;
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every index was claimed and filled *))
      results
  end
