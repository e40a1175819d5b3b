module Q = Spp_num.Rat

(* Qualitative palette (ColorBrewer Set3-ish), cycled by rect id. *)
let palette =
  [| "#8dd3c7"; "#ffffb3"; "#bebada"; "#fb8072"; "#80b1d3"; "#fdb462";
     "#b3de69"; "#fccde5"; "#d9d9d9"; "#bc80bd"; "#ccebc5"; "#ffed6f" |]

let render ?(width_px = 480) ?(label = true) placement =
  let items = Placement.items placement in
  let total_h = Q.to_float (Placement.height placement) in
  let scale = float_of_int width_px in
  let height_px = Float.max 1.0 (total_h *. scale) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%.1f\" \
        viewBox=\"0 0 %d %.1f\">\n"
       width_px height_px width_px height_px);
  Buffer.add_string buf
    (Printf.sprintf
       "<rect x=\"0\" y=\"0\" width=\"%d\" height=\"%.1f\" fill=\"white\" \
        stroke=\"#333\" stroke-width=\"1\"/>\n"
       width_px height_px);
  List.iter
    (fun ({ Placement.rect; pos } : Placement.item) ->
      let x = Q.to_float pos.Placement.x *. scale in
      let w = Q.to_float rect.Rect.w *. scale in
      let h = Q.to_float rect.Rect.h *. scale in
      (* SVG's y axis points down; the strip's base is the bottom edge. *)
      let y = height_px -. ((Q.to_float pos.Placement.y *. scale) +. h) in
      let colour = palette.(rect.Rect.id mod Array.length palette) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" fill=\"%s\" \
            stroke=\"#333\" stroke-width=\"0.8\"/>\n"
           x y w h colour);
      if label then
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%.2f\" y=\"%.2f\" font-size=\"%.1f\" text-anchor=\"middle\" \
              dominant-baseline=\"middle\" font-family=\"sans-serif\">%d</text>\n"
             (x +. (w /. 2.0))
             (y +. (h /. 2.0))
             (Float.min 14.0 (Float.max 6.0 (h /. 2.5)))
             rect.Rect.id))
    items;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let save path placement =
  let oc = open_out path in
  output_string oc (render placement);
  close_out oc
