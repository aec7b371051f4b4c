(* Minimal blocking client for phloemd's line protocol, used by
   `simulate --remote` and the tests. *)

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let with_unix path f =
  let fd = connect_unix path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let send_line fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length data in
  let rec loop off =
    if off < n then loop (off + Unix.write fd data off (n - off))
  in
  loop 0

(* One response line, without its newline. @raise End_of_file if the
   daemon hangs up first. Peeks up to [chunk] bytes, then reads exactly
   through the newline, so no byte of a following line is consumed and the
   fd needs no buffer of its own. *)
let chunk = 65536

let recv_line fd =
  let buf = Buffer.create 1024 in
  let b = Bytes.create chunk in
  let rec take n =
    (* the [n] bytes are already queued on the socket *)
    if n > 0 then begin
      match Unix.read fd b 0 n with
      | 0 -> raise End_of_file
      | got ->
        Buffer.add_subbytes buf b 0 got;
        take (n - got)
    end
  in
  let rec loop () =
    match Unix.recv fd b 0 chunk [ Unix.MSG_PEEK ] with
    | 0 -> if Buffer.length buf = 0 then raise End_of_file else Buffer.contents buf
    | n -> (
      match Bytes.index_from_opt b 0 '\n' with
      | Some i when i < n ->
        take (i + 1);
        Buffer.sub buf 0 (Buffer.length buf - 1)
      | _ ->
        take n;
        loop ())
  in
  loop ()

let request fd line =
  send_line fd line;
  recv_line fd
