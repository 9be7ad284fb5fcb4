(* Print an OCaml module binding the MD5 of the files named on the
   command line — paths and contents, in sorted path order — and its
   first 60 bits as an int. *)

let () =
  let files = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun path ->
      Buffer.add_string buf path;
      Buffer.add_char buf '\000';
      Buffer.add_string buf (In_channel.with_open_bin path In_channel.input_all);
      Buffer.add_char buf '\000')
    files;
  let hex = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Printf.printf "let hex = %S\nlet bits = 0x%s\n" hex (String.sub hex 0 15)
