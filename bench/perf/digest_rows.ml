(** Digest of a round's simulated results. Rows are keyed by job id and
    folded in id order, so the order in which campaign jobs complete
    cannot change it; values print as exact hexadecimal floats. *)

let of_rows rows =
  let b = Buffer.create 4096 in
  List.iter
    (fun (id, fields) ->
      Printf.bprintf b "%d" id;
      List.iter (fun (k, v) -> Printf.bprintf b " %s=%h" k v) fields;
      Buffer.add_char b '\n')
    (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) rows);
  Digest.to_hex (Digest.string (Buffer.contents b))
