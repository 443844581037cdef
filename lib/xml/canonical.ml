(* Whitespace-normalize and escape [s] straight into [buf], continuing a
   run of adjacent text in state [st]: 0 before the run's first non-blank
   character, 1 just after one, 2 in blanks that follow one.  Blank runs
   collapse to one space and the run's leading and trailing blanks are
   dropped, across node boundaries too.  Returns the state after [s]. *)
let add_text buf st s =
  let st = ref st in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> if !st = 1 then st := 2
    | c ->
        if !st = 2 then Buffer.add_char buf ' ';
        st := 1;
        Serialize.add_escaped_char buf `Text c
  done;
  !st

let rec emit buf (n : Dom.node) =
  match n.Dom.desc with
  | Dom.Text s -> ignore (add_text buf 0 s)
  | Dom.Element e ->
      Buffer.add_char buf '<';
      Buffer.add_string buf (Symbol.to_string e.name);
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          String.iter (Serialize.add_escaped_char buf `Attr) v;
          Buffer.add_char buf '"')
        (match e.attrs with ([] | [ _ ]) as one -> one | many -> List.sort compare many);
      Buffer.add_char buf '>';
      (* Coalesce adjacent text and drop whitespace-only runs. *)
      let rec walk st = function
        | [] -> ()
        | ({ Dom.desc = Dom.Text s; _ } : Dom.node) :: rest -> walk (add_text buf st s) rest
        | c :: rest ->
            emit buf c;
            walk 0 rest
      in
      walk 0 e.children;
      Buffer.add_string buf "</";
      Buffer.add_string buf (Symbol.to_string e.name);
      Buffer.add_char buf '>'

let of_node n =
  let buf = Buffer.create 256 in
  emit buf n;
  Buffer.contents buf

let of_nodes nodes =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char buf '\n';
      emit buf n)
    nodes;
  Buffer.contents buf

let equal a b = String.equal (of_nodes a) (of_nodes b)
