module Symbol = Xmark_xml.Symbol

exception Error of { pos : int; message : string }

type state = { src : string; mutable pos : int }

let error p message = raise (Error { pos = p.pos; message })

let eof p = p.pos >= String.length p.src

let peek_at p k = if p.pos + k < String.length p.src then Some p.src.[p.pos + k] else None

let peek p = peek_at p 0

let looking_at p s =
  let n = String.length s in
  p.pos + n <= String.length p.src && String.sub p.src p.pos n = s

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_digit c = c >= '0' && c <= '9'

let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c = is_name_start c || is_digit c || c = '.'

(* Skip whitespace and (possibly nested) XQuery comments. *)
let rec skip p =
  if eof p then ()
  else if is_ws (peek p |> Option.get) then begin
    p.pos <- p.pos + 1;
    skip p
  end
  else if looking_at p "(:" then begin
    p.pos <- p.pos + 2;
    let depth = ref 1 in
    while !depth > 0 do
      if eof p then error p "unterminated comment"
      else if looking_at p "(:" then begin
        incr depth;
        p.pos <- p.pos + 2
      end
      else if looking_at p ":)" then begin
        decr depth;
        p.pos <- p.pos + 2
      end
      else p.pos <- p.pos + 1
    done;
    skip p
  end

let eat p s =
  skip p;
  if looking_at p s then begin
    p.pos <- p.pos + String.length s;
    true
  end
  else false

let expect p s = if not (eat p s) then error p (Printf.sprintf "expected %S" s)

(* A name: NCName characters, where '-' is included when it joins two name
   characters (so built-ins like zero-or-one lex as one token). *)
let read_name_raw p =
  if eof p || not (is_name_start (peek p |> Option.get)) then error p "expected a name";
  let start = p.pos in
  let continue () =
    if eof p then false
    else
      let c = peek p |> Option.get in
      if is_name_char c then true
      else if c = '-' then
        match peek_at p 1 with Some c2 -> is_name_char c2 | None -> false
      else false
  in
  while continue () do
    p.pos <- p.pos + 1
  done;
  String.sub p.src start (p.pos - start)

let read_name p =
  skip p;
  read_name_raw p

(* Qualified name; transparent prefixes are dropped. *)
let read_qname p =
  let n = read_name p in
  if (not (eof p)) && peek p = Some ':' && peek_at p 1 <> Some ':' then begin
    p.pos <- p.pos + 1;
    let local = read_name_raw p in
    match n with
    | "fn" | "local" | "xs" | "xf" -> local
    | _ -> error p (Printf.sprintf "unsupported namespace prefix %s:" n)
  end
  else n

(* Peek a keyword: name at cursor equals [kw] with a word boundary. *)
let peek_keyword p kw =
  skip p;
  let n = String.length kw in
  looking_at p kw
  && (p.pos + n >= String.length p.src
     ||
     let c = p.src.[p.pos + n] in
     not (is_name_char c || c = '-'))

let eat_keyword p kw =
  if peek_keyword p kw then begin
    p.pos <- p.pos + String.length kw;
    true
  end
  else false

let expect_keyword p kw =
  if not (eat_keyword p kw) then error p (Printf.sprintf "expected keyword %S" kw)

let read_string_literal p =
  skip p;
  match peek p with
  | Some (('"' | '\'') as q) ->
      p.pos <- p.pos + 1;
      let buf = Buffer.create 16 in
      let rec loop () =
        if eof p then error p "unterminated string literal";
        let c = peek p |> Option.get in
        p.pos <- p.pos + 1;
        if c = q then
          (* doubled quote escapes itself *)
          if peek p = Some q then begin
            p.pos <- p.pos + 1;
            Buffer.add_char buf q;
            loop ()
          end
          else ()
        else begin
          Buffer.add_char buf c;
          loop ()
        end
      in
      loop ();
      Buffer.contents buf
  | _ -> error p "expected a string literal"

(* IntegerLiteral, DecimalLiteral (".5", "1.", "1.5") and DoubleLiteral
   (either with an exponent: "1e20", "1.5E-3") *)
let read_number p =
  skip p;
  let start = p.pos in
  let digit_at k = match peek_at p k with Some c -> is_digit c | None -> false in
  let digits () = while digit_at 0 do p.pos <- p.pos + 1 done in
  digits ();
  if peek p = Some '.' && (p.pos > start || digit_at 1) then begin
    p.pos <- p.pos + 1;
    digits ()
  end;
  if p.pos = start then error p "expected a number";
  (match peek p with
  | Some ('e' | 'E') ->
      let sign = match peek_at p 1 with Some ('+' | '-') -> 1 | _ -> 0 in
      if digit_at (1 + sign) then begin
        p.pos <- p.pos + 1 + sign;
        digits ()
      end
  | _ -> ());
  float_of_string (String.sub p.src start (p.pos - start))

let read_var p =
  skip p;
  expect p "$";
  read_name_raw p

(* --- expression grammar ------------------------------------------------ *)

let rec parse_expr_seq p =
  let first = parse_single p in
  if eat p "," then
    let rest = parse_expr_seq p in
    match rest with
    | Ast.Sequence es -> Ast.Sequence (first :: es)
    | e -> Ast.Sequence [ first; e ]
  else first

and parse_single p =
  skip p;
  if peek_keyword p "for" || peek_keyword p "let" then parse_flwor p
  else if peek_keyword p "some" then parse_quantified p Ast.Some_
  else if peek_keyword p "every" then parse_quantified p Ast.Every
  else if peek_keyword p "if" then parse_if p
  else parse_or p

and parse_flwor p =
  let clauses = ref [] in
  let rec clause_loop () =
    if eat_keyword p "for" then begin
      let rec vars () =
        let v = read_var p in
        expect_keyword p "in";
        let e = parse_single p in
        clauses := Ast.For (v, e) :: !clauses;
        if eat p "," then vars ()
      in
      vars ();
      clause_loop ()
    end
    else if eat_keyword p "let" then begin
      let rec vars () =
        let v = read_var p in
        expect p ":=";
        let e = parse_single p in
        clauses := Ast.Let (v, e) :: !clauses;
        if eat p "," then vars ()
      in
      vars ();
      clause_loop ()
    end
  in
  clause_loop ();
  let where = if eat_keyword p "where" then Some (parse_single p) else None in
  let order =
    if eat_keyword p "order" || eat_keyword p "sort" then begin
      expect_keyword p "by";
      let rec keys acc =
        let key = parse_single p in
        let descending =
          if eat_keyword p "descending" then true
          else begin
            ignore (eat_keyword p "ascending");
            false
          end
        in
        (if eat_keyword p "empty" then
           if not (eat_keyword p "greatest" || eat_keyword p "least") then
             error p "expected greatest or least");
        let acc = { Ast.key; descending } :: acc in
        if eat p "," then keys acc else List.rev acc
      in
      keys []
    end
    else []
  in
  expect_keyword p "return";
  let ret = parse_single p in
  Ast.Flwor { clauses = List.rev !clauses; where; order; ret }

and parse_quantified p quant =
  (match quant with
  | Ast.Some_ -> expect_keyword p "some"
  | Ast.Every -> expect_keyword p "every");
  let rec binds acc =
    let v = read_var p in
    expect_keyword p "in";
    let e = parse_single p in
    let acc = (v, e) :: acc in
    if eat p "," then binds acc else List.rev acc
  in
  let bs = binds [] in
  expect_keyword p "satisfies";
  let sat = parse_single p in
  Ast.Quantified (quant, bs, sat)

and parse_if p =
  expect_keyword p "if";
  expect p "(";
  let c = parse_expr_seq p in
  expect p ")";
  expect_keyword p "then";
  let t = parse_single p in
  expect_keyword p "else";
  let e = parse_single p in
  Ast.If (c, t, e)

and parse_or p =
  let a = parse_and p in
  if eat_keyword p "or" then Ast.Or (a, parse_or p) else a

and parse_and p =
  let a = parse_cmp p in
  if eat_keyword p "and" then Ast.And (a, parse_and p) else a

and parse_cmp p =
  let a = parse_additive p in
  skip p;
  if eat p "<<" then Ast.Node_before (a, parse_additive p)
  else if eat p ">>" then Ast.Node_after (a, parse_additive p)
  else if eat p "!=" then Ast.Compare (Ne, a, parse_additive p)
  else if eat p "<=" then Ast.Compare (Le, a, parse_additive p)
  else if eat p ">=" then Ast.Compare (Ge, a, parse_additive p)
  else if eat p "=" then Ast.Compare (Eq, a, parse_additive p)
  else if eat p "<" then Ast.Compare (Lt, a, parse_additive p)
  else if eat p ">" then Ast.Compare (Gt, a, parse_additive p)
  else if eat_keyword p "eq" then Ast.Compare (Eq, a, parse_additive p)
  else if eat_keyword p "ne" then Ast.Compare (Ne, a, parse_additive p)
  else if eat_keyword p "lt" then Ast.Compare (Lt, a, parse_additive p)
  else if eat_keyword p "le" then Ast.Compare (Le, a, parse_additive p)
  else if eat_keyword p "gt" then Ast.Compare (Gt, a, parse_additive p)
  else if eat_keyword p "ge" then Ast.Compare (Ge, a, parse_additive p)
  else a

and parse_additive p =
  let rec loop a =
    skip p;
    if eat p "+" then loop (Ast.Arith (Add, a, parse_multiplicative p))
    else if
      (* '-' is subtraction only when surrounded by expression boundaries;
         a '-' glued into a name was consumed by the name lexer already. *)
      peek p = Some '-'
    then begin
      p.pos <- p.pos + 1;
      loop (Ast.Arith (Sub, a, parse_multiplicative p))
    end
    else a
  in
  loop (parse_multiplicative p)

and parse_multiplicative p =
  let rec loop a =
    skip p;
    if eat p "*" then loop (Ast.Arith (Mul, a, parse_unary p))
    else if eat_keyword p "div" then loop (Ast.Arith (Div, a, parse_unary p))
    else if eat_keyword p "mod" then loop (Ast.Arith (Mod, a, parse_unary p))
    else a
  in
  loop (parse_unary p)

and parse_unary p =
  skip p;
  if eat p "-" then Ast.Neg (parse_unary p) else parse_path p

(* Path expressions. *)
and parse_path p =
  skip p;
  if looking_at p "//" then begin
    p.pos <- p.pos + 2;
    let steps = parse_steps p ~first_axis:Ast.Descendant in
    Ast.Path (Ast.Root, steps)
  end
  else if peek p = Some '/' then begin
    p.pos <- p.pos + 1;
    skip p;
    if eof p || not (is_name_start (Option.get (peek p)) || peek p = Some '@' || peek p = Some '*')
    then Ast.Path (Ast.Root, [])  (* bare "/" *)
    else
      let steps = parse_steps p ~first_axis:Ast.Child in
      Ast.Path (Ast.Root, steps)
  end
  else if starts_relative_step p then
    Ast.Path (Ast.Context, parse_steps p ~first_axis:Ast.Child)
  else
    let origin = parse_postfix p in
    skip p;
    if looking_at p "//" then begin
      p.pos <- p.pos + 2;
      Ast.Path (origin, parse_steps p ~first_axis:Ast.Descendant)
    end
    else if peek p = Some '/' then begin
      p.pos <- p.pos + 1;
      Ast.Path (origin, parse_steps p ~first_axis:Ast.Child)
    end
    else origin

(* A bare [@attr], [*] wildcard, or a name that is not a function call opens
   a relative path from the context item (used inside predicates). *)
and starts_relative_step p =
  skip p;
  match peek p with
  | Some '@' -> true
  | Some '*' -> false  (* leading '*' only occurs as multiplication here *)
  | Some c when is_name_start c ->
      let save = p.pos in
      let _ = read_name_raw p in
      (* allow one prefix:name segment *)
      (if peek p = Some ':' && peek_at p 1 <> Some ':' then begin
         p.pos <- p.pos + 1;
         if (not (eof p)) && is_name_start (Option.get (peek p)) then ignore (read_name_raw p)
       end);
      let is_axis = looking_at p "::" in
      skip p;
      let is_call = peek p = Some '(' in
      p.pos <- save;
      is_axis || not is_call
  | _ -> false

and parse_steps p ~first_axis =
  let step = parse_step p first_axis in
  let rec loop acc =
    skip p;
    if looking_at p "//" then begin
      p.pos <- p.pos + 2;
      loop (parse_step p Ast.Descendant :: acc)
    end
    else if peek p = Some '/' then begin
      p.pos <- p.pos + 1;
      loop (parse_step p Ast.Child :: acc)
    end
    else List.rev acc
  in
  loop [ step ]

and parse_step p axis =
  skip p;
  let axis, test =
    if eat p "@" then
      if eat p "*" then (Ast.Attribute, Ast.Star)
      else (Ast.Attribute, Ast.Name (Symbol.intern (read_name_raw p)))
    else if looking_at p ".." then begin
      p.pos <- p.pos + 2;
      (Ast.Parent, Ast.Any_kind)
    end
    else if peek p = Some '.' then begin
      p.pos <- p.pos + 1;
      (Ast.Self, Ast.Any_kind)
    end
    else if eat p "*" then (axis, Ast.Star)
    else begin
      (* explicit axes child:: / descendant:: / attribute:: *)
      let name = read_qname p in
      if looking_at p "::" then begin
        p.pos <- p.pos + 2;
        let axis =
          match name with
          | "child" -> Ast.Child
          | "descendant" | "descendant-or-self" -> Ast.Descendant
          | "attribute" -> Ast.Attribute
          | "parent" -> Ast.Parent
          | "self" -> Ast.Self
          | other -> error p (Printf.sprintf "unsupported axis %s" other)
        in
        skip p;
        if eat p "*" then (axis, Ast.Star)
        else (axis, Ast.Name (Symbol.intern (read_qname p)))
      end
      else if looking_at p "()" then begin
        p.pos <- p.pos + 2;
        match name with
        | "text" -> (axis, Ast.Text_test)
        | "node" -> (axis, Ast.Any_kind)
        | other -> error p (Printf.sprintf "unsupported node test %s()" other)
      end
      else (axis, Ast.Name (Symbol.intern name))
    end
  in
  let preds = parse_predicates p in
  { Ast.axis; test; preds }

and parse_predicates p =
  let rec loop acc =
    skip p;
    if eat p "[" then begin
      let e = parse_expr_seq p in
      expect p "]";
      loop (e :: acc)
    end
    else List.rev acc
  in
  loop []

and parse_postfix p =
  let prim = parse_primary p in
  match parse_predicates p with
  | [] -> prim
  | preds -> Ast.Filter (prim, preds)

and parse_primary p =
  skip p;
  if eof p then error p "unexpected end of input";
  match peek p |> Option.get with
  | '$' -> Ast.Var (read_var p)
  | '"' | '\'' -> Ast.Literal (read_string_literal p)
  | '(' ->
      p.pos <- p.pos + 1;
      skip p;
      if eat p ")" then Ast.Sequence []
      else begin
        let e = parse_expr_seq p in
        expect p ")";
        e
      end
  | '<' -> parse_constructor p
  | c when is_digit c -> Ast.Number (read_number p)
  | '.' when peek_at p 1 |> Option.map is_digit = Some true -> Ast.Number (read_number p)
  | c when is_name_start c ->
      let name = read_qname p in
      skip p;
      if peek p = Some '(' then begin
        p.pos <- p.pos + 1;
        let args =
          let rec loop acc =
            skip p;
            if eat p ")" then List.rev acc
            else begin
              let e = parse_single p in
              let acc = e :: acc in
              skip p;
              if eat p "," then loop acc
              else begin
                expect p ")";
                List.rev acc
              end
            end
          in
          loop []
        in
        match name with
        | "document" | "doc" -> Ast.Root
        | _ -> Ast.Call (name, args)
      end
      else error p (Printf.sprintf "unexpected name %S in expression position" name)
  | c -> error p (Printf.sprintf "unexpected character %C" c)

(* --- direct element constructors --------------------------------------- *)

and parse_constructor p =
  expect p "<";
  let tag = read_qname p in
  let rec attrs acc =
    skip p;
    if eat p "/>" then Ast.Elem_ctor (Symbol.intern tag, List.rev acc, [])
    else if eat p ">" then begin
      let content = parse_content p tag in
      Ast.Elem_ctor (Symbol.intern tag, List.rev acc, content)
    end
    else begin
      let key = read_qname p in
      skip p;
      expect p "=";
      skip p;
      let value = parse_attr_value p in
      attrs ((key, value) :: acc)
    end
  in
  attrs []

and parse_attr_value p =
  let q =
    match peek p with
    | Some (('"' | '\'') as q) ->
        p.pos <- p.pos + 1;
        q
    | _ -> error p "expected quoted attribute value"
  in
  let pieces = ref [] in
  let buf = Buffer.create 16 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      pieces := Ast.A_text (Buffer.contents buf) :: !pieces;
      Buffer.clear buf
    end
  in
  let rec loop () =
    if eof p then error p "unterminated attribute value";
    let c = peek p |> Option.get in
    if c = q then p.pos <- p.pos + 1
    else if c = '{' then
      if peek_at p 1 = Some '{' then begin
        p.pos <- p.pos + 2;
        Buffer.add_char buf '{';
        loop ()
      end
      else begin
        p.pos <- p.pos + 1;
        flush_text ();
        let e = parse_expr_seq p in
        expect p "}";
        pieces := Ast.A_expr e :: !pieces;
        loop ()
      end
    else if c = '}' && peek_at p 1 = Some '}' then begin
      p.pos <- p.pos + 2;
      Buffer.add_char buf '}';
      loop ()
    end
    else begin
      p.pos <- p.pos + 1;
      Buffer.add_char buf c;
      loop ()
    end
  in
  loop ();
  flush_text ();
  List.rev !pieces

and parse_content p closing =
  let pieces = ref [] in
  let buf = Buffer.create 32 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      (* Boundary whitespace between constructor tags is not content. *)
      if not (String.for_all is_ws s) then pieces := Ast.C_text s :: !pieces;
      Buffer.clear buf
    end
  in
  let rec loop () =
    if eof p then error p "unterminated element constructor"
    else if looking_at p "</" then begin
      flush_text ();
      p.pos <- p.pos + 2;
      let name = read_name_raw p in
      if name <> closing then
        error p (Printf.sprintf "mismatched constructor end tag </%s>, expected </%s>" name closing);
      skip p;
      expect p ">"
    end
    else if peek p = Some '<' then begin
      flush_text ();
      let e = parse_constructor p in
      pieces := Ast.C_expr e :: !pieces;
      loop ()
    end
    else if peek p = Some '{' then
      if peek_at p 1 = Some '{' then begin
        p.pos <- p.pos + 2;
        Buffer.add_char buf '{';
        loop ()
      end
      else begin
        flush_text ();
        p.pos <- p.pos + 1;
        let e = parse_expr_seq p in
        expect p "}";
        pieces := Ast.C_expr e :: !pieces;
        loop ()
      end
    else if peek p = Some '}' && peek_at p 1 = Some '}' then begin
      p.pos <- p.pos + 2;
      Buffer.add_char buf '}';
      loop ()
    end
    else begin
      Buffer.add_char buf (peek p |> Option.get);
      p.pos <- p.pos + 1;
      loop ()
    end
  in
  loop ();
  List.rev !pieces

(* --- prolog and entry points ------------------------------------------- *)

let parse_prolog p =
  let funcs = ref [] in
  let rec loop () =
    if peek_keyword p "declare" || peek_keyword p "define" then begin
      ignore (eat_keyword p "declare" || eat_keyword p "define");
      expect_keyword p "function";
      let fname = read_qname p in
      expect p "(";
      let params =
        let rec loop acc =
          skip p;
          if eat p ")" then List.rev acc
          else begin
            let v = read_var p in
            (* optional type annotation: $v as xs:decimal etc. *)
            (if eat_keyword p "as" then
               let _ = read_qname p in
               ignore (eat p "?") ; ignore (eat p "*"));
            let acc = v :: acc in
            if eat p "," then loop acc
            else begin
              expect p ")";
              List.rev acc
            end
          end
        in
        loop []
      in
      (if eat_keyword p "as" then begin
         let _ = read_qname p in
         ignore (eat p "?");
         ignore (eat p "*")
       end);
      expect p "{";
      let body = parse_expr_seq p in
      expect p "}";
      ignore (eat p ";");
      funcs := { Ast.fname; params; body } :: !funcs;
      loop ()
    end
  in
  loop ();
  List.rev !funcs

let finish p =
  skip p;
  if not (eof p) then error p "trailing input after expression"

let parse_query src =
  let p = { src; pos = 0 } in
  let functions = parse_prolog p in
  let main = parse_expr_seq p in
  finish p;
  { Ast.functions; main }

let parse_expr src =
  let p = { src; pos = 0 } in
  let e = parse_expr_seq p in
  finish p;
  e

let describe_error src = function
  | Error { pos; message } ->
      let line = ref 1 and bol = ref 0 in
      String.iteri
        (fun i c ->
          if i < pos && c = '\n' then begin
            incr line;
            bol := i + 1
          end)
        src;
      Printf.sprintf "parse error at line %d, column %d: %s" !line (pos - !bol + 1) message
  | e -> Printexc.to_string e
