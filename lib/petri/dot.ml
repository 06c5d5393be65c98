let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let to_dot ?(name = "derivation") ?tokens net =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" (escape name));
  Buffer.add_string buf "  rankdir=LR;\n";
  List.iter
    (fun p ->
      let n =
        match tokens with
        | Some (v : Net.tokens) -> v.count p
        | None -> 0
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  p%d [shape=%s, label=\"%s%s\"];\n" p
           (if n > 0 then "doublecircle" else "circle")
           (escape (Net.place_name net p))
           (if n > 0 then Printf.sprintf "\\n(%d)" n else "")))
    (Net.places net);
  List.iter
    (fun info ->
      Buffer.add_string buf
        (Printf.sprintf "  t%d [shape=box, label=\"%s\"];\n" info.Net.t_id
           (escape info.Net.t_name));
      List.iter
        (fun (p, k) ->
          Buffer.add_string buf
            (Printf.sprintf "  p%d -> t%d%s;\n" p info.Net.t_id
               (if k > 1 then Printf.sprintf " [label=\"%d\"]" k else "")))
        info.Net.inputs;
      List.iter
        (fun p ->
          Buffer.add_string buf (Printf.sprintf "  t%d -> p%d;\n" info.Net.t_id p))
        info.Net.outputs)
    (Net.transitions net);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
