type node = {
  mutable desc : desc;
  mutable parent : node option;
  mutable order : int;
  mutable hi : int;
}

and desc =
  | Element of element
  | Text of string

and element = {
  name : Symbol.t;
  mutable attrs : (string * string) list;
  mutable children : node list;
}

let element_sym ?(attrs = []) ?(children = []) name =
  let n = { desc = Element { name; attrs; children }; parent = None; order = -1; hi = -1 } in
  List.iter (fun c -> c.parent <- Some n) children;
  n

let element ?attrs ?children name = element_sym ?attrs ?children (Symbol.intern name)

let text data = { desc = Text data; parent = None; order = -1; hi = -1 }

let append parent child =
  match parent.desc with
  | Element e ->
      e.children <- e.children @ [ child ];
      child.parent <- Some parent
  | Text _ -> invalid_arg "Dom.append: text node cannot have children"

let order_gap = 1 lsl 16

(* Pre-order numbering [step] apart; [hi] is one past the subtree's last
   key, so the [step - 1] keys after it stay free for later inserts. *)
let rec number ~step counter n =
  n.order <- !counter;
  counter := !counter + step;
  (match n.desc with
  | Text _ -> ()
  | Element e -> List.iter (number ~step counter) e.children);
  n.hi <- !counter - step + 1

let index root =
  let counter = ref 0 in
  number ~step:order_gap counter root;
  !counter / order_gap

let number_from n lo =
  let counter = ref lo in
  number ~step:1 counter n;
  !counter

let rec root n = match n.parent with Some p -> root p | None -> n

let order_of n =
  if n.order < 0 then ignore (index (root n));
  n.order

let name_sym n =
  match n.desc with
  | Element e -> e.name
  | Text _ -> Symbol.empty

let name_string n = Symbol.to_string (name_sym n)

let name = name_string

let is_element n =
  match n.desc with
  | Element _ -> true
  | Text _ -> false

let children n =
  match n.desc with
  | Element e -> e.children
  | Text _ -> []

let attr n key =
  match n.desc with
  | Element e -> List.assoc_opt key e.attrs
  | Text _ -> None

let rec iter f n =
  f n;
  match n.desc with
  | Text _ -> ()
  | Element e -> List.iter (iter f) e.children

let fold f acc n =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) n;
  !acc

let size n = fold (fun k _ -> k + 1) 0 n

let string_value n =
  let buf = Buffer.create 64 in
  iter
    (fun x ->
      match x.desc with
      | Text s -> Buffer.add_string buf s
      | Element _ -> ())
    n;
  Buffer.contents buf

let descendants_named root tag =
  let tag = Symbol.intern tag in
  let acc = ref [] in
  iter
    (fun x ->
      if x != root && Symbol.equal (name_sym x) tag then acc := x :: !acc)
    root;
  List.rev !acc

let find_element root tag =
  let tag = Symbol.intern tag in
  let exception Found of node in
  try
    iter (fun x -> if Symbol.equal (name_sym x) tag then raise (Found x)) root;
    None
  with Found x -> Some x

let rec deep_copy n =
  match n.desc with
  | Text s -> text s
  | Element e -> element_sym ~attrs:e.attrs ~children:(List.map deep_copy e.children) e.name

let sorted_attrs e = List.sort compare e.attrs

let rec equal a b =
  match (a.desc, b.desc) with
  | Text s, Text t -> String.equal s t
  | Element e, Element f ->
      Symbol.equal e.name f.name
      && sorted_attrs e = sorted_attrs f
      && List.length e.children = List.length f.children
      && List.for_all2 equal e.children f.children
  | Text _, Element _ | Element _, Text _ -> false
