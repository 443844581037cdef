let add_escaped_char buf kind c =
  match (c, kind) with
  | '&', _ -> Buffer.add_string buf "&amp;"
  | '<', _ -> Buffer.add_string buf "&lt;"
  | '>', `Text -> Buffer.add_string buf "&gt;"
  | '"', `Attr -> Buffer.add_string buf "&quot;"
  | _ -> Buffer.add_char buf c

let add_escaped buf kind s = String.iter (add_escaped_char buf kind) s

let escape_text s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf `Text s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf `Attr s;
  Buffer.contents buf

let has_text_child n =
  List.exists
    (fun (c : Dom.node) -> match c.Dom.desc with Dom.Text _ -> true | Dom.Element _ -> false)
    (Dom.children n)

let to_buffer ?(indent = false) buf root =
  let open Dom in
  let pad depth =
    if indent then begin
      Buffer.add_char buf '\n';
      for _ = 1 to depth do
        Buffer.add_string buf "  "
      done
    end
  in
  let rec emit depth n =
    match n.desc with
    | Text s -> add_escaped buf `Text s
    | Element e ->
        Buffer.add_char buf '<';
        Buffer.add_string buf (Symbol.to_string e.name);
        List.iter
          (fun (k, v) ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf k;
            Buffer.add_string buf "=\"";
            add_escaped buf `Attr v;
            Buffer.add_char buf '"')
          e.attrs;
        if e.children = [] then Buffer.add_string buf "/>"
        else begin
          Buffer.add_char buf '>';
          let mixed = has_text_child n in
          List.iter
            (fun c ->
              if not mixed then pad (depth + 1);
              emit (depth + 1) c)
            e.children;
          if not mixed then pad depth;
          Buffer.add_string buf "</";
          Buffer.add_string buf (Symbol.to_string e.name);
          Buffer.add_char buf '>'
        end
  in
  emit 0 root

let to_string ?indent n =
  let buf = Buffer.create 1024 in
  to_buffer ?indent buf n;
  Buffer.contents buf

let fragment_to_string nodes =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char buf '\n';
      to_buffer buf n)
    nodes;
  Buffer.contents buf
