module Serialize = Xmark_xml.Serialize
module Symbol = Xmark_xml.Symbol
module Dom = Xmark_xml.Dom

type t = {
  open_tag : Symbol.t -> (string * string) list -> unit;
  close_tag : unit -> unit;
  text : string -> unit;
}

(* Shared writer core over a raw-string output function.  Elements are
   written as explicit start/end pairs; the generator never needs
   self-closing forms and parsers treat both the same.  Tags arrive
   interned and are resolved to (shared) strings only at the byte
   boundary. *)
let writer out =
  let stack = ref [] in
  let open_tag name attrs =
    out "<";
    out (Symbol.to_string name);
    List.iter
      (fun (k, v) ->
        out " ";
        out k;
        out "=\"";
        out (Serialize.escape_attr v);
        out "\"")
      attrs;
    out ">";
    stack := name :: !stack
  in
  let close_tag () =
    match !stack with
    | [] -> invalid_arg "Sink: close_tag without open element"
    | name :: rest ->
        out "</";
        out (Symbol.to_string name);
        out ">";
        stack := rest
  in
  let text s = out (Serialize.escape_text s) in
  { open_tag; close_tag; text }

let of_buffer buf = writer (Buffer.add_string buf)

let of_channel oc = writer (output_string oc)

let counting () =
  let bytes = ref 0 and elements = ref 0 in
  let out s = bytes := !bytes + String.length s in
  let w = writer out in
  let open_tag name attrs =
    incr elements;
    w.open_tag name attrs
  in
  ({ w with open_tag }, fun () -> (!bytes, !elements))

(* The tree a parser would build from the serialized form: consecutive
   [text] calls become one text node (the data model has no adjacent
   text siblings) and a whitespace-only run is dropped, as
   [Sax.parse_dom] drops it, so [text()] steps see the same nodes
   whichever way a store was loaded. *)
let dom () =
  let stack : (Symbol.t * (string * string) list * Dom.node list ref) list ref = ref [] in
  let root = ref None in
  let pending = Buffer.create 256 in
  let flush () =
    if Buffer.length pending > 0 then begin
      let s = Buffer.contents pending in
      Buffer.clear pending;
      match !stack with
      | (_, _, children) :: _
        when not (String.for_all (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false) s) ->
          children := Dom.text s :: !children
      | _ -> ()
    end
  in
  let open_tag name attrs =
    flush ();
    stack := (name, attrs, ref []) :: !stack
  in
  let close_tag () =
    flush ();
    match !stack with
    | [] -> invalid_arg "Sink.dom: close_tag without open element"
    | (name, attrs, children) :: rest ->
        let node = Dom.element_sym ~attrs ~children:(List.rev !children) name in
        stack := rest;
        (match rest with
        | (_, _, parent_children) :: _ -> parent_children := node :: !parent_children
        | [] -> root := Some node)
  in
  let text s =
    match !stack with
    | [] -> invalid_arg "Sink.dom: text outside root element"
    | _ :: _ -> Buffer.add_string pending s
  in
  let finish () =
    match (!root, !stack) with
    | Some r, [] ->
        ignore (Dom.index r);
        r
    | _, _ :: _ -> invalid_arg "Sink.dom: document not finished"
    | None, [] -> invalid_arg "Sink.dom: empty document"
  in
  ({ open_tag; close_tag; text }, finish)

type split_info = { files : string list; entities : int }

let entity_tags = [ "item"; "person"; "open_auction"; "closed_auction"; "category" ]

let entity_tag_syms = List.map Symbol.intern entity_tags

let split ~dir ~basename ~per_file () =
  if per_file <= 0 then invalid_arg "Sink.split: per_file must be positive";
  let files = ref [] in
  let file_no = ref 0 in
  let entities_total = ref 0 in
  let in_file = ref 0 in
  let oc = ref None in
  (* Stack of open elements with their attributes so a fresh file can be
     re-opened under the same ancestor chain. *)
  let stack : (Symbol.t * (string * string) list) list ref = ref [] in
  let out s =
    match !oc with
    | Some c -> output_string c s
    | None -> invalid_arg "Sink.split: write after finish"
  in
  let write_open (name, attrs) =
    out "<";
    out (Symbol.to_string name);
    List.iter
      (fun (k, v) ->
        out " ";
        out k;
        out "=\"";
        out (Serialize.escape_attr v);
        out "\"")
      attrs;
    out ">"
  in
  let write_close name =
    out "</";
    out (Symbol.to_string name);
    out ">"
  in
  let open_file () =
    incr file_no;
    let path = Filename.concat dir (Printf.sprintf "%s-%04d.xml" basename !file_no) in
    oc := Some (open_out path);
    files := path :: !files;
    in_file := 0;
    List.iter write_open (List.rev !stack)
  in
  let close_file () =
    List.iter (fun (name, _) -> write_close name) !stack;
    (match !oc with Some c -> close_out c | None -> ());
    oc := None
  in
  let rotate () =
    close_file ();
    open_file ()
  in
  let open_tag name attrs =
    if !oc = None then open_file ();
    if List.exists (Symbol.equal name) entity_tag_syms then begin
      incr entities_total;
      if !in_file >= per_file then rotate ();
      incr in_file
    end;
    write_open (name, attrs);
    stack := (name, attrs) :: !stack
  in
  let close_tag () =
    match !stack with
    | [] -> invalid_arg "Sink.split: close_tag without open element"
    | (name, _) :: rest ->
        write_close name;
        stack := rest
  in
  let text s = out (Serialize.escape_text s) in
  let finish () =
    if !oc <> None then begin
      List.iter (fun (name, _) -> write_close name) !stack;
      stack := [];
      (match !oc with Some c -> close_out c | None -> ());
      oc := None
    end;
    { files = List.rev !files; entities = !entities_total }
  in
  ({ open_tag; close_tag; text }, finish)
