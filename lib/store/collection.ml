module Dom = Xmark_xml.Dom

let sections = [ "regions"; "categories"; "catgraph"; "people"; "open_auctions"; "closed_auctions" ]

let regions = [ "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" ]

let child_el n tag = List.find_opt (fun c -> Dom.name c = tag) (Dom.children n)

let merge roots =
  if roots = [] then
    invalid_arg "Collection.merge: empty collection (no roots to merge)";
  List.iter
    (fun r ->
      if Dom.name r <> "site" then
        invalid_arg (Printf.sprintf "Collection.merge: root is <%s>, expected <site>" (Dom.name r)))
    roots;
  match roots with
  | [ root ] ->
      (* a one-file collection IS the document: no copy, no skeleton
         rebuild — just make sure it is indexed like a merged tree *)
      ignore (Dom.index root);
      root
  | roots ->
  let section_content tag =
    (* contents of a section across all files, in file order *)
    List.concat_map
      (fun root ->
        match child_el root tag with Some s -> Dom.children s | None -> [])
      roots
  in
  let merged_section tag =
    if tag = "regions" then
      (* regions nests one level deeper: merge per region *)
      Dom.element
        ~children:
          (List.map
             (fun region ->
               let items =
                 List.concat_map
                   (fun root ->
                     match child_el root "regions" with
                     | None -> []
                     | Some rs -> (
                         match child_el rs region with
                         | Some r -> Dom.children r
                         | None -> []))
                   roots
               in
               Dom.element ~children:(List.map Dom.deep_copy items) region)
             regions)
        "regions"
    else Dom.element ~children:(List.map Dom.deep_copy (section_content tag)) tag
  in
  let site = Dom.element ~children:(List.map merged_section sections) "site" in
  ignore (Dom.index site);
  site

let load_files files = merge (List.map Xmark_xml.Sax.parse_file files)
